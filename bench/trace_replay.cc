/**
 * @file
 * Trace-driven end-to-end comparison (DESIGN.md §14): Fig. 10's
 * scheme-speedup rows computed over replayed PIPMT traces instead of
 * the live Table 1 synthetics — the paper's §5.1.2 methodology (Pin
 * traces replayed through the simulator) end to end.
 *
 * By default the four trace_gen models are synthesized deterministically
 * into a per-process temp directory (removed on exit) and replayed; set
 * PIPM_TRACE_FILE to a .pipmt path (or several, colon-separated) to
 * replay recorded traces instead. Replay runs use the trace's recorded
 * host/core geometry.
 */

#include <filesystem>
#include <iostream>
#include <memory>
#include <vector>

#include <unistd.h>

#include "bench_common.hh"
#include "common/env.hh"
#include "common/table_printer.hh"
#include "trace/trace_gen.hh"
#include "workloads/trace_file.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "trace_replay",
        "Fig. 10-style speedups over replayed PIPMT traces "
        "(PIPM_TRACE_FILE overrides the generated suite).");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    SystemConfig cfg = defaultConfig();
    const bool faulty = applyEnvFaults(cfg, opts.seed);

    // Resolve the trace set: recorded files from PIPM_TRACE_FILE
    // (colon-separated), else the generated model suite at the
    // config's geometry.
    std::vector<std::string> paths;
    std::filesystem::path gen_dir;
    const std::string env_traces = envStr("PIPM_TRACE_FILE", "");
    if (!env_traces.empty()) {
        std::string::size_type pos = 0;
        while (pos <= env_traces.size()) {
            const auto colon = env_traces.find(':', pos);
            const auto end =
                colon == std::string::npos ? env_traces.size() : colon;
            if (end > pos)
                paths.push_back(env_traces.substr(pos, end - pos));
            pos = end + 1;
        }
    } else {
        // Keyed on the pid so concurrent runs never share files.
        gen_dir = std::filesystem::temp_directory_path() /
                  ("pipm_trace_replay_suite." + std::to_string(getpid()));
        std::filesystem::create_directories(gen_dir);
        for (const std::string &model : genModels()) {
            GenSpec spec;
            spec.model = model;
            spec.numHosts = cfg.numHosts;
            spec.coresPerHost = cfg.coresPerHost;
            spec.refsPerStream = opts.warmupRefs + opts.measureRefs;
            spec.seed = opts.seed;
            const std::string path =
                (gen_dir / ("gen_" + model + ".pipmt")).string();
            generateTrace(spec).writeTo(path);
            paths.push_back(path);
        }
    }

    std::vector<std::unique_ptr<TraceFileWorkload>> workloads;
    for (const std::string &path : paths)
        workloads.push_back(std::make_unique<TraceFileWorkload>(path));

    TablePrinter table(
        "Trace replay: end-to-end speedup over Native CXL-DSM");
    std::vector<std::string> header = {"trace"};
    for (Scheme s : allSchemes)
        header.push_back(std::string(toString(s)));
    table.header(header);

    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        // Replay at the recorded geometry: the trace defines the run.
        SystemConfig c = cfg;
        c.numHosts = workload->recordedHosts();
        c.coresPerHost = workload->recordedCoresPerHost();
        for (Scheme s : allSchemes)
            sweep.add(c, s, *workload);
    }
    const std::vector<RunResult> results = sweep.run();

    // One block of allSchemes runs per trace, native first.
    static_assert(allSchemes.front() == Scheme::native);
    std::vector<std::vector<double>> columns(allSchemes.size());
    for (std::size_t b = 0; b < results.size(); b += allSchemes.size()) {
        const RunResult &native = results[b];
        std::vector<std::string> row = {native.workload};
        for (std::size_t i = 0; i < allSchemes.size(); ++i) {
            const RunResult &r = results[b + i];
            const double speedup = speedupOver(native, r);
            columns[i].push_back(speedup);
            row.push_back(TablePrinter::num(speedup, 2) + "x");
        }
        table.row(row);
    }

    std::vector<std::string> mean_row = {"geomean"};
    for (auto &col : columns)
        mean_row.push_back(TablePrinter::num(geomean(col), 2) + "x");
    table.row(mean_row);
    table.print(std::cout);

    if (faulty)
        std::cout << "(paper-default fault schedule active: "
                     "PIPM_BENCH_FAULTS)\n";
    std::cout << "Replayed " << workloads.size() << " trace(s); "
                 "streams loop when a run consumes more references "
                 "than the trace holds.\n";
    if (!gen_dir.empty())
        std::filesystem::remove_all(gen_dir);
    return 0;
}
