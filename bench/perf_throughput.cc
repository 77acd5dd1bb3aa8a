/**
 * @file
 * Simulator-throughput harness (DESIGN.md §9): times warm runExperiment
 * calls per scheme and reports wall-clock seconds and simulated
 * references per second, so data-structure or hot-path regressions show
 * up as numbers rather than anecdotes.
 *
 * Unlike the figure harnesses this never reads or writes the TSV cache
 * — the simulation itself is the thing being measured. One untimed
 * warmup run heats the allocator and code paths first; each scheme is
 * then timed with std::chrono::steady_clock.
 *
 * Output: a human-readable table on stdout and a JSON summary written
 * to PIPM_BENCH_PERF_JSON (default ./BENCH_perf.json) for CI artifact
 * upload and cross-commit comparison. When PIPM_BENCH_PERF_BASELINE
 * points at a committed BENCH_perf.json measured with the same
 * parameters, each scheme is compared against it: a >20% refs/s drop
 * prints a warning — non-gating, because refs/s is machine-dependent —
 * while any exec_cycles difference exits non-zero, because simulated
 * cycles are deterministic and must not move without a deliberate
 * model change.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hh"
#include "common/env.hh"
#include "common/table_printer.hh"
#include "obs/json.hh"
#include "workloads/catalog.hh"

namespace
{

/** Slurp a file; empty string when unreadable. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return in.good() || in.eof() ? buf.str() : std::string();
}

/** One scheme's timed run. */
struct SchemeRun
{
    std::string scheme;
    double refsPerS = 0.0;
    std::uint64_t execCycles = 0;
};

/**
 * Compare this run's schemes against a committed baseline. A refs/s
 * drop only warns. Parameter mismatches (different refs, seed, workload
 * or scheduler) void the comparison, since neither figure would be
 * apples-to-apples.
 * @return false when the baseline cannot be read, or when a scheme's
 *         exec_cycles differ from a baseline with matching parameters
 */
bool
compareBaseline(const std::string &path, const std::string &workload,
                const pipmbench::Options &opts, const std::string &sched,
                const std::vector<SchemeRun> &runs)
{
    using pipm::JsonValue;
    const std::string text = readFile(path);
    if (text.empty()) {
        std::fprintf(stderr, "[perf] ERROR: baseline %s unreadable\n",
                     path.c_str());
        return false;
    }
    std::string err;
    const auto base = pipm::parseJson(text, &err);
    if (!base) {
        std::fprintf(stderr, "[perf] ERROR: baseline %s: %s\n",
                     path.c_str(), err.c_str());
        return false;
    }
    const JsonValue *wl = base->find("workload");
    const JsonValue *refs = base->find("measure_refs_per_core");
    const JsonValue *warm = base->find("warmup_refs_per_core");
    const JsonValue *seed = base->find("seed");
    const JsonValue *bsched = base->find("sched");
    if (!wl || wl->raw != workload ||
        !refs || refs->asU64() != opts.measureRefs ||
        !warm || warm->asU64() != opts.warmupRefs ||
        !seed || seed->asU64() != opts.seed ||
        (bsched && bsched->raw != sched)) {
        std::fprintf(stderr,
                     "[perf] baseline %s measured different parameters; "
                     "skipping compare\n",
                     path.c_str());
        return true;
    }
    const JsonValue *schemes = base->find("schemes");
    if (!schemes || !schemes->isArray())
        return true;
    bool cycles_match = true;
    for (const SchemeRun &run : runs) {
        const char *name = run.scheme.c_str();
        for (const JsonValue &entry : schemes->arr) {
            const JsonValue *sn = entry.find("scheme");
            if (!sn || sn->raw != run.scheme)
                continue;
            const JsonValue *sc = entry.find("exec_cycles");
            if (sc && sc->asU64() != run.execCycles) {
                std::fprintf(stderr,
                             "[perf] ERROR: scheme %s simulated %llu "
                             "cycles; the baseline has %llu\n",
                             name,
                             static_cast<unsigned long long>(
                                 run.execCycles),
                             static_cast<unsigned long long>(
                                 sc->asU64()));
                cycles_match = false;
            }
            const JsonValue *sr = entry.find("refs_per_s");
            if (!sr || sr->num <= 0.0)
                continue;
            const double ratio = run.refsPerS / sr->num;
            if (ratio < 0.8) {
                std::fprintf(stderr,
                             "[perf] WARNING: scheme %s at %.0f refs/s is "
                             "%.0f%% of the committed baseline (%.0f); "
                             "non-gating, but worth a look\n",
                             name, run.refsPerS, ratio * 100.0, sr->num);
            } else {
                std::fprintf(stderr,
                             "[perf] scheme %s: %.2fx baseline\n", name,
                             ratio);
            }
        }
    }
    return cycles_match;
}

} // namespace

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "perf_throughput",
        "Perf harness (DESIGN.md 9): simulator throughput per scheme.");
    using namespace pipm;
    using namespace pipmbench;
    using clock = std::chrono::steady_clock;

    const Options opts = optionsFromEnv();
    const SystemConfig cfg = defaultConfig();
    const RunConfig run_cfg = runConfigOf(opts);
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const std::string sched = envStr("PIPM_SCHED", "heap");

    // Simulated references fed into one run: warmup plus measurement,
    // on every core of every host.
    const double refs_per_run =
        static_cast<double>(opts.measureRefs + opts.warmupRefs) *
        cfg.numHosts * cfg.coresPerHost;

    // Untimed warmup: first-touch page faults, allocator pools and
    // branch predictors would otherwise tax the first timed scheme.
    runExperiment(cfg, Scheme::native, *workload, run_cfg);

    TablePrinter table("Simulator throughput per scheme (workload pr)");
    table.header({"scheme", "wall [s]", "refs/s", "exec cycles"});

    std::ostringstream json;
    json << "{\n  \"workload\": \"" << workload->name() << "\",\n"
         << "  \"measure_refs_per_core\": " << opts.measureRefs << ",\n"
         << "  \"warmup_refs_per_core\": " << opts.warmupRefs << ",\n"
         << "  \"seed\": " << opts.seed << ",\n"
         << "  \"sched\": \"" << sched << "\",\n  \"schemes\": [";

    double total_s = 0.0;
    bool first = true;
    std::vector<SchemeRun> runs;
    for (Scheme s : allSchemes) {
        const auto t0 = clock::now();
        const RunResult r = runExperiment(cfg, s, *workload, run_cfg);
        const auto t1 = clock::now();
        const double wall =
            std::chrono::duration<double>(t1 - t0).count();
        const double rate = wall > 0.0 ? refs_per_run / wall : 0.0;
        total_s += wall;

        table.row({std::string(toString(s)), TablePrinter::num(wall, 3),
                   TablePrinter::num(rate, 0),
                   std::to_string(r.execCycles)});
        runs.push_back({std::string(toString(s)), rate, r.execCycles});
        json << (first ? "" : ",") << "\n    {\"scheme\": \""
             << toString(s) << "\", \"wall_s\": " << wall
             << ", \"refs_per_s\": " << rate
             << ", \"exec_cycles\": " << r.execCycles << "}";
        first = false;
    }
    json << "\n  ],\n  \"total_wall_s\": " << total_s
         << ",\n  \"total_refs_per_s\": "
         << (total_s > 0.0
                 ? refs_per_run * static_cast<double>(allSchemes.size()) /
                       total_s
                 : 0.0)
         << "\n}\n";

    table.row({"total", TablePrinter::num(total_s, 3),
               TablePrinter::num(refs_per_run *
                                     static_cast<double>(
                                         allSchemes.size()) /
                                     total_s,
                                 0),
               ""});
    table.print(std::cout);

    const char *json_env = std::getenv("PIPM_BENCH_PERF_JSON");
    const std::string json_path = json_env ? json_env : "BENCH_perf.json";
    std::ofstream out(json_path, std::ios::trunc);
    out << json.str();
    if (!out)
        std::fprintf(stderr, "[bench] warning: cannot write %s\n",
                     json_path.c_str());
    else
        std::cout << "Wrote " << json_path << "\n";

    const std::string baseline = envStr("PIPM_BENCH_PERF_BASELINE", "");
    if (!baseline.empty() &&
        !compareBaseline(baseline, workload->name(), opts, sched, runs))
        return 1;
    return 0;
}
