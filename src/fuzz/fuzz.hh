/**
 * @file
 * Differential configuration fuzzing (DESIGN.md §13).
 *
 * The simulator carries several hard equivalence contracts — heap and
 * scan schedulers are bit-identical, a zero-rate fault schedule is
 * bit-identical to no fault injection, every stats.json export
 * validates, the cross-structure invariants hold throughout any run —
 * but each was only ever checked at a handful of hand-picked seeds.
 * This module closes that gap the way CXL-DMSim cross-checks its
 * simulator against silicon: generate *valid* random configurations
 * over every knob that exists, run each under independent
 * implementations of the same contract, and flag any divergence.
 *
 * Pipeline: sampler (sample wide) -> repair (clamp into the ranges
 * SystemConfig::validate() accepts) -> differential oracles -> greedy
 * minimizer (shrink a failing sample to a minimal reproducer printed as
 * a ready-to-paste regression test).
 *
 * The oracles here are the library-level ones (they need only the pipm
 * library); bench/fuzz_run.cc layers the jobs=1-vs-N bench-cache oracle
 * on top, which needs the bench sweep infrastructure.
 */

#ifndef PIPM_FUZZ_FUZZ_HH
#define PIPM_FUZZ_FUZZ_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "workloads/workload.hh"

namespace pipm
{
namespace fuzz
{

/** One sampled experiment: configuration + workload + run lengths. */
struct FuzzCase
{
    SystemConfig cfg;
    Scheme scheme = Scheme::pipmFull;
    /** Table 1 name, or "trace:<path>" for a PIPMT trace replay. */
    std::string workload = "ycsb";
    std::uint64_t runSeed = 42;
    std::uint64_t warmupRefs = 500;     ///< per core
    std::uint64_t measureRefs = 2'000;  ///< per core
    /** Multi-line access-model overrides on the synthetic pattern
     *  (0 = keep the workload's Table 1 value; ignored for traces). */
    unsigned hotLinesPerPage = 0;
    unsigned seqRunLines = 0;
};

/** Sampling bounds (kept laptop-small; a fuzz case is run 2+ times). */
struct FuzzLimits
{
    std::uint64_t minRefs = 1'000;
    std::uint64_t maxRefs = 4'000;
    std::uint64_t maxWarmup = 1'000;
    unsigned maxHosts = 6;
    unsigned maxCoresPerHost = 2;
};

/** The small deterministic baseline every sample perturbs. */
FuzzCase defaultCase();

/**
 * Sample one case from `seed` (deterministic: equal seeds give equal
 * cases). Samples wide — every SystemConfig/FaultConfig knob that has a
 * validate() rule gets a range, including the lease/stall/
 * meta-corruption/breaker knobs — then repairs through repairCase(), so
 * the result always passes validate().
 */
FuzzCase sampleCase(std::uint64_t seed, const FuzzLimits &lim = {});

/** Clamp a (possibly wild) case into ranges validate() accepts. */
void repairCase(FuzzCase &c);

/** Non-fatal validate(): false (and `why`) instead of fatal(). */
bool caseValid(const FuzzCase &c, std::string *why = nullptr);

/** One-line human summary (hosts/cores/workload/scheme/fault domains). */
std::string describeCase(const FuzzCase &c);

/** Exact `path=value;` text of every FuzzCase field (the SystemConfig
 *  field table plus the run fields): equal signatures, equal cases. */
std::string caseSignature(const FuzzCase &c);

/** `name=value` lines over every stored runResultFields row; differential
 *  oracles compare these and report the first differing field. */
std::string fingerprintResult(const RunResult &r);

/** A file's bytes ("" when unreadable); the oracles compare exports. */
std::string slurp(const std::string &path);

/**
 * Build the case's workload: a Table 1 synthetic with any multi-line
 * overrides applied, or a TraceFileWorkload for "trace:<path>" names.
 * fatal() (SimError under the test hook) on unknown names or unreadable
 * trace files.
 */
std::unique_ptr<Workload> caseWorkload(const FuzzCase &c);

/**
 * Trace files sampleCase() draws trace-backed workloads from: the
 * `.pipmt` entries of the PIPM_FUZZ_TRACE_DIR directory, sorted by
 * name for determinism. Empty when the knob is unset or the directory
 * has no traces. Scanned once per process.
 */
const std::vector<std::string> &fuzzTraceFiles();

/** Run one case (scheduler/invariant/obs knobs via `run` overrides). */
RunResult runCase(const FuzzCase &c, const RunConfig &run);

/** RunConfig for a case with observability off and env resolution off
 *  (fuzz runs must not inherit PIPM_STATS_JSON etc. from the caller). */
RunConfig runConfigFor(const FuzzCase &c);

/** Verdict of one oracle on one case. */
struct OracleResult
{
    bool ok = true;
    std::string detail;   ///< first divergence / violation when !ok
};

/** A named cross-checking oracle. */
struct Oracle
{
    std::string name;
    std::function<OracleResult(const FuzzCase &)> check;
};

/**
 * The library-level oracle classes:
 *  - "sched":     heap vs scan scheduler RunResult byte-identity
 *  - "faultzero": faults-off vs faults-on-but-zero-rate identity
 *  - "values":    value tracking off vs on RunResult identity
 *  - "invariants": PIPM_CHECK_INVARIANTS-style full-run sweep
 *  - "statsjson": every export validates and is byte-deterministic
 */
std::vector<Oracle> coreOracles();

/** Look one core oracle up by name (fatal on unknown). */
Oracle coreOracle(const std::string &name);

/**
 * Test-only hooks. `schedExecSkew` plants a deliberate off-by-one-style
 * bug: the scan-scheduler run's execCycles is perturbed by this many
 * cycles before the "sched" oracle compares, simulating a scheduler
 * divergence so tests can prove the differential harness detects and
 * minimizes a seeded bug. Always zero outside tests.
 */
struct FuzzHooks
{
    Cycles schedExecSkew = 0;
};

FuzzHooks &hooks();

/** Outcome of minimizing one failing case. */
struct MinimizedCase
{
    FuzzCase best;          ///< smallest case still failing the oracle
    OracleResult failure;   ///< the oracle's verdict on `best`
    unsigned evals = 0;     ///< oracle evaluations spent
    unsigned shrinks = 0;   ///< accepted shrink steps
};

/**
 * Greedily shrink `failing` while the oracle keeps failing: drop fault
 * domains one at a time, halve hosts/cores/refs/footprint, reset knob
 * groups to defaults — each candidate repaired and re-validated before
 * it is tried. Stops at a fixpoint or after `max_evals` oracle runs.
 */
MinimizedCase minimizeCase(const FuzzCase &failing, const Oracle &oracle,
                           unsigned max_evals = 120);

/** C++ statements reconstructing `c` into a variable named `var`. */
std::string renderCaseCode(const FuzzCase &c, const std::string &var = "c");

/** A ready-to-paste gtest regression test pinning `oracle` on `c`. */
std::string renderRegressionTest(const FuzzCase &c,
                                 const std::string &oracle_name,
                                 std::uint64_t sample_seed);

} // namespace fuzz
} // namespace pipm

#endif // PIPM_FUZZ_FUZZ_HH
