/**
 * @file
 * trace_tool: the PIPMT trace swiss-army knife (DESIGN.md §14).
 *
 *   gen        synthesize a trace from one of the trace_gen models
 *   record     run an experiment, capturing the consumed streams
 *   info       print a trace's header and per-stream record counts
 *   replay     run an experiment over a trace file
 *   merge      interleave several traces round-robin into one
 *   roundtrip  record + replay + compare: exit 1 (keeping the trace)
 *              unless the replayed RunResult is bit-identical
 *
 * `roundtrip` is the CI smoke for the subsystem's headline contract:
 * a trace captured from a live run — fault injection included —
 * replays to a byte-identical RunResult.
 */

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/config.hh"
#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "fuzz/fuzz.hh"
#include "sim/runner.hh"
#include "trace/recorder.hh"
#include "trace/trace.hh"
#include "trace/trace_gen.hh"
#include "workloads/catalog.hh"
#include "workloads/trace_file.hh"

namespace
{

using namespace pipm;

void
usage(std::ostream &os)
{
    os << "usage: trace_tool <command> [options]\n"
          "\n"
          "PIPMT trace capture, generation and replay (DESIGN.md §14).\n"
          "\n"
          "commands:\n"
          "  gen --model M --out FILE [gen options]\n"
          "      synthesize a trace; models: ";
    const char *sep = "";
    for (const std::string &m : genModels()) {
        os << sep << m;
        sep = ", ";
    }
    os << "\n"
          "  record --out FILE [run options] [--workload W] [--scale N]\n"
          "      run an experiment and capture the streams it consumes\n"
          "  info FILE...\n"
          "      print header, checksum and per-stream record counts\n"
          "  replay FILE [run options]\n"
          "      run an experiment over the trace and print a summary\n"
          "  merge --out FILE IN IN...\n"
          "      round-robin interleave the inputs' per-core streams\n"
          "  roundtrip [run options] [--keep FILE]\n"
          "      record + replay; exit 1 (keeping the trace) on any\n"
          "      RunResult divergence\n"
          "\n"
          "run options (record/replay/roundtrip):\n"
          "  --hosts N     hosts (default: 2; replay: recorded value)\n"
          "  --cores N     cores per host (default 1; replay: recorded)\n"
          "  --refs N      measured references per core (default 2000)\n"
          "  --warmup N    warmup references per core (default 200)\n"
          "  --seed S      run seed (default 42)\n"
          "  --scheme S    scheme name as in Fig. 10 (default pipm)\n"
          "  --faults      enable the paper-default fault schedule\n"
          "\n"
          "gen options:\n"
          "  --refs N / --hosts N / --cores N / --seed S as above\n"
          "  --shared-pages N, --private-pages N, --write-frac F,\n"
          "  --private-frac F, --gap-mean N, --hot-pages N,\n"
          "  --half-life N, --handoff-pages N, --phase-refs N,\n"
          "  --zipf-theta T\n";
}

/** Exit 2 with usage on a malformed command line. */
[[noreturn]] void
badArgs(const std::string &why)
{
    std::cerr << "trace_tool: " << why << "\n";
    usage(std::cerr);
    std::exit(2);
}

/** Flag cursor: `value()` consumes the argument after argv[i]. */
struct Args
{
    int argc;
    char **argv;
    int i = 2;

    std::string
    value(const std::string &flag)
    {
        if (i + 1 >= argc)
            badArgs("missing value for " + flag);
        return argv[++i];
    }

    std::uint64_t
    num(const std::string &flag)
    {
        const std::string v = value(flag);
        const auto n = parseU64(v);
        if (!n)
            badArgs("bad number '" + v + "' for " + flag);
        return *n;
    }

    /** A whole, finite decimal number: "", "0.5x", "nan" and "inf"
     *  are rejected. */
    double
    real(const std::string &flag)
    {
        const std::string v = value(flag);
        const char *end = v.data() + v.size();
        double x = 0.0;
        const auto [ptr, ec] = std::from_chars(v.data(), end, x);
        if (ec != std::errc() || ptr != end || !std::isfinite(x))
            badArgs("bad number '" + v + "' for " + flag);
        return x;
    }
};

/** The run options shared by record/replay/roundtrip. */
struct RunOpts
{
    unsigned hosts = 2;
    unsigned cores = 1;
    bool hostsSet = false;
    bool coresSet = false;
    std::uint64_t refs = 2'000;
    std::uint64_t warmup = 200;
    std::uint64_t seed = 42;
    Scheme scheme = Scheme::pipmFull;
    bool faults = false;

    /** Consume one flag if it is a run option. */
    bool
    consume(Args &a, const std::string &arg)
    {
        if (arg == "--hosts") {
            hosts = static_cast<unsigned>(a.num(arg));
            hostsSet = true;
        } else if (arg == "--cores") {
            cores = static_cast<unsigned>(a.num(arg));
            coresSet = true;
        } else if (arg == "--refs") {
            refs = a.num(arg);
        } else if (arg == "--warmup") {
            warmup = a.num(arg);
        } else if (arg == "--seed") {
            seed = a.num(arg);
        } else if (arg == "--scheme") {
            const std::string name = a.value(arg);
            const std::optional<Scheme> s = schemeFromString(name);
            if (!s)
                badArgs("unknown scheme '" + name + "'");
            scheme = *s;
        } else if (arg == "--faults") {
            faults = true;
        } else {
            return false;
        }
        return true;
    }

    SystemConfig
    config() const
    {
        SystemConfig cfg = testConfig();
        cfg.numHosts = hosts;
        cfg.coresPerHost = cores;
        if (faults)
            cfg.fault = paperFaultConfig(seed);
        cfg.validate();
        return cfg;
    }

    RunConfig
    runConfig() const
    {
        RunConfig run;
        run.warmupRefsPerCore = warmup;
        run.measureRefsPerCore = refs;
        run.seed = seed;
        run.obsFromEnv = false;
        return run;
    }
};

void
printSummary(const RunResult &r)
{
    std::cout << "workload=" << r.workload << " scheme="
              << toString(r.scheme) << " execCycles=" << r.execCycles
              << " ipc=" << r.ipc << " sharedAccesses="
              << r.sharedAccesses << " interHost=" << r.interHostAccesses
              << " promotions=" << r.pipmPromotions << " crashes="
              << r.hostCrashes << "\n";
}

int
cmdGen(Args &a)
{
    GenSpec spec;
    std::string out;
    for (; a.i < a.argc; ++a.i) {
        const std::string arg = a.argv[a.i];
        if (arg == "--model") {
            spec.model = a.value(arg);
        } else if (arg == "--out") {
            out = a.value(arg);
        } else if (arg == "--hosts") {
            spec.numHosts = static_cast<unsigned>(a.num(arg));
        } else if (arg == "--cores") {
            spec.coresPerHost = static_cast<unsigned>(a.num(arg));
        } else if (arg == "--refs") {
            spec.refsPerStream = a.num(arg);
        } else if (arg == "--seed") {
            spec.seed = a.num(arg);
        } else if (arg == "--shared-pages") {
            spec.sharedPages = a.num(arg);
        } else if (arg == "--private-pages") {
            spec.privatePages = a.num(arg);
        } else if (arg == "--write-frac") {
            spec.writeFrac = a.real(arg);
        } else if (arg == "--private-frac") {
            spec.privateFrac = a.real(arg);
        } else if (arg == "--gap-mean") {
            spec.gapMean = static_cast<unsigned>(a.num(arg));
        } else if (arg == "--hot-pages") {
            spec.hotPages = a.num(arg);
        } else if (arg == "--half-life") {
            spec.halfLifeRefs = a.num(arg);
        } else if (arg == "--handoff-pages") {
            spec.handoffPages = a.num(arg);
        } else if (arg == "--phase-refs") {
            spec.phaseRefs = a.num(arg);
        } else if (arg == "--zipf-theta") {
            spec.zipfTheta = a.real(arg);
        } else {
            badArgs("unknown gen argument '" + arg + "'");
        }
    }
    if (out.empty())
        badArgs("gen needs --out FILE");
    if (!knownGenModel(spec.model))
        badArgs("unknown model '" + spec.model + "'");
    TraceWriter w = generateTrace(spec);
    w.writeTo(out);
    std::cout << "wrote " << out << ": " << w.totalRecords()
              << " records, " << spec.numHosts << "x" << spec.coresPerHost
              << " streams, model " << spec.model << "\n";
    return 0;
}

int
cmdRecord(Args &a)
{
    RunOpts opts;
    std::string out;
    std::string workload_name = "ycsb";
    std::uint64_t scale = 256;
    for (; a.i < a.argc; ++a.i) {
        const std::string arg = a.argv[a.i];
        if (opts.consume(a, arg))
            continue;
        if (arg == "--out")
            out = a.value(arg);
        else if (arg == "--workload")
            workload_name = a.value(arg);
        else if (arg == "--scale")
            scale = a.num(arg);
        else
            badArgs("unknown record argument '" + arg + "'");
    }
    if (out.empty())
        badArgs("record needs --out FILE");
    const SystemConfig cfg = opts.config();
    const auto workload = workloadByName(workload_name, scale);
    TraceRecorder recorder(*workload, cfg.numHosts, cfg.coresPerHost);
    const RunResult r =
        runExperiment(cfg, opts.scheme, recorder, opts.runConfig());
    recorder.writeTo(out);
    std::cout << "recorded " << recorder.recordedRefs() << " refs to "
              << out << "\n";
    printSummary(r);
    return 0;
}

int
cmdInfo(Args &a)
{
    if (a.i >= a.argc)
        badArgs("info needs at least one FILE");
    for (; a.i < a.argc; ++a.i) {
        const std::string path = a.argv[a.i];
        if (path.rfind("--", 0) == 0)
            badArgs("unknown info argument '" + path + "'");
        TraceReader in(path);
        const TraceMeta &m = in.meta();
        std::cout << path << ":\n"
                  << "  name       " << m.name << "\n"
                  << "  source     " << m.sourceFingerprint << "\n"
                  << "  geometry   " << m.numHosts << " hosts x "
                  << m.coresPerHost << " cores, " << m.pageBytes
                  << " B pages / " << m.lineBytes << " B lines\n"
                  << "  footprint  " << m.footprintBytes << " B ("
                  << m.sharedBytes << " shared, " << m.privateBytesPerHost
                  << " private per host)\n"
                  << "  checksum   " << hashHex(in.checksum()) << "\n"
                  << "  records    " << in.totalRecords() << "\n";
        for (unsigned h = 0; h < m.numHosts; ++h) {
            for (unsigned c = 0; c < m.coresPerHost; ++c) {
                const unsigned s = m.streamIndex(h, c);
                std::cout << "    h" << h << "c" << c << "  "
                          << in.records(s) << " records, "
                          << in.streamBytes(s) << " B\n";
            }
        }
    }
    return 0;
}

int
cmdReplay(Args &a)
{
    RunOpts opts;
    std::string path;
    for (; a.i < a.argc; ++a.i) {
        const std::string arg = a.argv[a.i];
        if (opts.consume(a, arg))
            continue;
        if (arg.rfind("--", 0) == 0)
            badArgs("unknown replay argument '" + arg + "'");
        if (!path.empty())
            badArgs("replay takes exactly one FILE");
        path = arg;
    }
    if (path.empty())
        badArgs("replay needs a FILE");
    TraceFileWorkload workload(path);
    if (!opts.hostsSet)
        opts.hosts = workload.recordedHosts();
    if (!opts.coresSet)
        opts.cores = workload.recordedCoresPerHost();
    const RunResult r = runExperiment(opts.config(), opts.scheme,
                                      workload, opts.runConfig());
    printSummary(r);
    return 0;
}

int
cmdMerge(Args &a)
{
    std::string out;
    std::vector<std::string> inputs;
    for (; a.i < a.argc; ++a.i) {
        const std::string arg = a.argv[a.i];
        if (arg == "--out")
            out = a.value(arg);
        else if (arg.rfind("--", 0) == 0)
            badArgs("unknown merge argument '" + arg + "'");
        else
            inputs.push_back(arg);
    }
    if (out.empty())
        badArgs("merge needs --out FILE");
    if (inputs.size() < 2)
        badArgs("merge needs at least two inputs");
    TraceWriter w = mergeTraces(inputs);
    w.writeTo(out);
    std::cout << "merged " << inputs.size() << " traces ("
              << w.totalRecords() << " records) into " << out << "\n";
    return 0;
}

int
cmdRoundtrip(Args &a)
{
    RunOpts opts;
    std::string keep;
    std::string workload_name = "ycsb";
    std::uint64_t scale = 256;
    for (; a.i < a.argc; ++a.i) {
        const std::string arg = a.argv[a.i];
        if (opts.consume(a, arg))
            continue;
        if (arg == "--keep")
            keep = a.value(arg);
        else if (arg == "--workload")
            workload_name = a.value(arg);
        else if (arg == "--scale")
            scale = a.num(arg);
        else
            badArgs("unknown roundtrip argument '" + arg + "'");
    }
    std::string trace_path = keep;
    if (trace_path.empty()) {
        std::ostringstream name;
        name << "pipm_roundtrip_" << ::getpid() << "_" << opts.seed
             << ".pipmt";
        trace_path =
            (std::filesystem::temp_directory_path() / name.str())
                .string();
    }

    const SystemConfig cfg = opts.config();
    const auto source = workloadByName(workload_name, scale);
    TraceRecorder recorder(*source, cfg.numHosts, cfg.coresPerHost);
    const RunResult recorded =
        runExperiment(cfg, opts.scheme, recorder, opts.runConfig());
    recorder.writeTo(trace_path);

    TraceFileWorkload replay_workload(trace_path);
    const RunResult replayed = runExperiment(
        cfg, opts.scheme, replay_workload, opts.runConfig());

    const std::string fp_rec = fuzz::fingerprintResult(recorded);
    const std::string fp_rep = fuzz::fingerprintResult(replayed);
    if (fp_rec != fp_rep) {
        // Report the first diverging measurement line-by-line.
        std::istringstream ra(fp_rec), rb(fp_rep);
        std::string la, lb;
        while (std::getline(ra, la) && std::getline(rb, lb)) {
            if (la != lb) {
                std::cerr << "roundtrip: FIRST DIVERGENCE\n  recorded: "
                          << la << "\n  replayed: " << lb << "\n";
                break;
            }
        }
        std::cerr << "roundtrip: FAILED (seed " << opts.seed
                  << (opts.faults ? ", faults on" : "")
                  << "); trace kept at " << trace_path << "\n";
        return 1;
    }
    std::cout << "roundtrip: OK (seed " << opts.seed << ", "
              << recorder.recordedRefs() << " refs"
              << (opts.faults ? ", faults on" : "") << ")\n";
    if (keep.empty())
        std::filesystem::remove(trace_path);
    else
        std::cout << "trace kept at " << trace_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(std::cerr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage(std::cout);
        return 0;
    }
    Args a{argc, argv};
    if (cmd == "gen")
        return cmdGen(a);
    if (cmd == "record")
        return cmdRecord(a);
    if (cmd == "info")
        return cmdInfo(a);
    if (cmd == "replay")
        return cmdReplay(a);
    if (cmd == "merge")
        return cmdMerge(a);
    if (cmd == "roundtrip")
        return cmdRoundtrip(a);
    std::cerr << "trace_tool: unknown command '" << cmd << "'\n";
    usage(std::cerr);
    return 2;
}
