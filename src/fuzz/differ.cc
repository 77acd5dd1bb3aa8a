/**
 * @file
 * Differential execution and cross-checking oracles (DESIGN.md §13).
 *
 * Each oracle runs one sampled case under two independent
 * implementations of the same contract (or one implementation plus a
 * validator) and reports the first divergence. Every run happens in a
 * ThrowOnErrorScope, so a panic()/fatal() inside the simulator surfaces
 * as an oracle failure carrying the message instead of aborting the
 * fuzz loop.
 */

#include "fuzz/fuzz.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"
#include "obs/stats_json.hh"
#include "workloads/catalog.hh"

namespace pipm
{
namespace fuzz
{

namespace
{

/** First line present in `a` but differing from `b` (both are
 *  fingerprintResult outputs with identical line structure). */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a);
    std::istringstream sb(b);
    std::string la;
    std::string lb;
    while (std::getline(sa, la)) {
        if (!std::getline(sb, lb))
            return la + " vs <missing>";
        if (la != lb)
            return la + " vs " + lb;
    }
    if (std::getline(sb, lb))
        return "<missing> vs " + lb;
    return "<no difference>";
}

/** A process-unique temp path for one stats.json export. */
std::string
tempStatsPath()
{
    static unsigned counter = 0;
    std::ostringstream name;
    name << "pipm_fuzz_stats_" << ::getpid() << "_" << ++counter << ".json";
    return (std::filesystem::temp_directory_path() / name.str()).string();
}

OracleResult
checkSched(const FuzzCase &c)
{
    ThrowOnErrorScope guard;
    try {
        RunConfig heap = runConfigFor(c);
        heap.scheduler = "heap";
        RunConfig scan = runConfigFor(c);
        scan.scheduler = "scan";
        const RunResult rh = runCase(c, heap);
        RunResult rs = runCase(c, scan);
        // Test hook: a planted scheduler divergence (see FuzzHooks).
        rs.execCycles += hooks().schedExecSkew;
        const std::string fh = fingerprintResult(rh);
        const std::string fs = fingerprintResult(rs);
        if (fh != fs)
            return {false, "heap vs scan scheduler diverge: " +
                               firstDiff(fh, fs)};
    } catch (const SimError &e) {
        return {false, "panic/fatal during run: " + e.message};
    }
    return {};
}

/** Run two variants of one case; `what` names the pair in a failure. */
OracleResult
sameFingerprint(const std::string &what, const FuzzCase &a,
                const FuzzCase &b)
{
    ThrowOnErrorScope guard;
    try {
        const std::string fa =
            fingerprintResult(runCase(a, runConfigFor(a)));
        const std::string fb =
            fingerprintResult(runCase(b, runConfigFor(b)));
        if (fa != fb)
            return {false, what + " diverge: " + firstDiff(fa, fb)};
    } catch (const SimError &e) {
        return {false, "panic/fatal during run: " + e.message};
    }
    return {};
}

OracleResult
checkFaultZero(const FuzzCase &c)
{
    // Faults off entirely...
    FuzzCase off = c;
    off.cfg.fault = FaultConfig{};
    // ...versus enabled with every rate at its zero default. The
    // sampled fault seed is kept: a zero-rate schedule must make no
    // draws, so the seed must not matter.
    FuzzCase zero = c;
    zero.cfg.fault = FaultConfig{};
    zero.cfg.fault.enabled = true;
    zero.cfg.fault.seed = c.cfg.fault.seed;
    return sameFingerprint("faults-off vs zero-rate faults", off, zero);
}

OracleResult
checkValues(const FuzzCase &c)
{
    // Values never influence timing: tracking them must not move a
    // single result field.
    FuzzCase off = c;
    off.cfg.trackValues = false;
    FuzzCase on = c;
    on.cfg.trackValues = true;
    return sameFingerprint("values off vs on", off, on);
}

OracleResult
checkInvariantsSweep(const FuzzCase &c)
{
    ThrowOnErrorScope guard;
    try {
        RunConfig run = runConfigFor(c);
        // The sweep is O(pool lines x hosts), so its cadence must scale
        // with the run: ~8 sweeps across the measured accesses (plus the
        // sweeps every crash/rejoin event forces regardless). The
        // PIPM_CHECK_INVARIANTS environment variable, when set,
        // overrides this cadence.
        run.checkInvariantsEvery = std::max<std::uint64_t>(
            1, c.measureRefs * c.cfg.numHosts * c.cfg.coresPerHost / 8);
        (void)runCase(c, run);
    } catch (const SimError &e) {
        return {false, "invariant violation: " + e.message};
    }
    return {};
}

OracleResult
checkStatsJson(const FuzzCase &c)
{
    ThrowOnErrorScope guard;
    const std::string path_a = tempStatsPath();
    const std::string path_b = tempStatsPath();
    OracleResult res;
    try {
        RunConfig run = runConfigFor(c);
        run.obsIntervalAccesses =
            std::max<std::uint64_t>(1, c.measureRefs / 4);
        run.statsJsonPath = path_a;
        (void)runCase(c, run);
        run.statsJsonPath = path_b;
        (void)runCase(c, run);
        const std::string doc_a = slurp(path_a);
        const std::string doc_b = slurp(path_b);
        if (doc_a.empty()) {
            res = {false, "stats.json export missing or empty"};
        } else if (doc_a != doc_b) {
            res = {false, "stats.json export is not byte-deterministic"};
        } else {
            const std::vector<std::string> bad = validateStatsJson(doc_a);
            if (!bad.empty())
                res = {false, "stats.json invalid: " + bad.front() + " (" +
                                  std::to_string(bad.size()) +
                                  " violations)"};
        }
    } catch (const SimError &e) {
        res = {false, "panic/fatal during run: " + e.message};
    }
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    return res;
}

} // namespace

RunConfig
runConfigFor(const FuzzCase &c)
{
    RunConfig run;
    run.warmupRefsPerCore = c.warmupRefs;
    run.measureRefsPerCore = c.measureRefs;
    run.seed = c.runSeed;
    run.scheduler = "heap";
    // Fuzz runs must not inherit PIPM_STATS_JSON / PIPM_OBS_* from the
    // environment: oracles own the observability knobs.
    run.obsFromEnv = false;
    return run;
}

RunResult
runCase(const FuzzCase &c, const RunConfig &run)
{
    const auto wl = caseWorkload(c);
    return runExperiment(c.cfg, c.scheme, *wl, run);
}

std::string
fingerprintResult(const RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    for (const RunResultField &f : runResultFields) {
        if (f.u64)
            os << f.name << '=' << r.*f.u64 << '\n';
        else if (f.f64)
            os << f.name << '=' << r.*f.f64 << '\n';
    }
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

FuzzHooks &
hooks()
{
    static FuzzHooks instance;
    return instance;
}

std::vector<Oracle>
coreOracles()
{
    return {
        {"sched", checkSched},
        {"faultzero", checkFaultZero},
        {"values", checkValues},
        {"invariants", checkInvariantsSweep},
        {"statsjson", checkStatsJson},
    };
}

Oracle
coreOracle(const std::string &name)
{
    std::string known;
    for (Oracle &o : coreOracles()) {
        if (o.name == name)
            return o;
        known += (known.empty() ? "" : ", ") + o.name;
    }
    fatal("unknown fuzz oracle '", name, "' (expected one of ", known, ")");
}

} // namespace fuzz
} // namespace pipm
