/**
 * @file
 * Shared infrastructure for the figure/table harnesses.
 *
 * Many figures consume the same (workload, scheme) runs — Fig. 10's
 * end-to-end matrix also feeds Figs. 11, 12 and 13. Since each harness is
 * its own binary, runs are memoised in a TSV cache file keyed by the full
 * experiment fingerprint (workload, scheme, configuration, run length,
 * seed), so running every harness binary in sequence simulates each
 * combination exactly once.
 *
 * A harness add()s every (config, scheme, workload) combination it
 * reports to one Sweep, and Sweep::run() returns their results in add()
 * order. run() simulates the ones the cache does not already hold on a
 * PIPM_BENCH_JOBS-sized thread pool; it is the only path that simulates
 * and stores a cached experiment. Each experiment is a self-contained
 * seeded simulation, so the results — and the cache rows written — are
 * bit-identical regardless of the job count. Cache writes go through a
 * single-writer merge: the file is re-read, merged with the new rows,
 * and atomically replaced via a temp file + rename, with rows in
 * canonical (key-sorted) order.
 * The file starts with a header line naming the columns (cacheHeader);
 * a file with any other header is ignored as a whole, and malformed or
 * truncated rows (e.g. from an interrupted run) are skipped, both
 * dropped with a warning on the next merge.
 *
 * Environment knobs:
 *   PIPM_BENCH_REFS    measured references per core (default 150000)
 *   PIPM_BENCH_WARMUP  warmup references per core (default 40000)
 *   PIPM_BENCH_SEED    RNG seed (default 42)
 *   PIPM_BENCH_CACHE   cache file path (default ./pipm_bench_cache.tsv)
 *   PIPM_BENCH_JOBS    worker threads for Sweep::run (default 1)
 *   PIPM_BENCH_FAULTS  fault schedule of the harnesses calling
 *                      applyEnvFaults: unset/"0" none, "1" the
 *                      paper-default schedule, or a coded faultSchedules
 *                      entry by name or code (e.g. "crash" or "2"); any
 *                      other value exits 2
 *
 * The observability knobs (PIPM_STATS_JSON, PIPM_OBS_INTERVAL,
 * PIPM_OBS_TRACE, PIPM_OBS_WATCH — DESIGN.md §10) are resolved once in
 * optionsFromEnv() and forwarded through runConfigOf() with
 * RunConfig::obsFromEnv false, so every harness sees one consistent
 * resolution. Sweep::run() clears the export path: cached experiments
 * may not re-run at all, and parallel sweep workers must not race on a
 * single output file. A direct runExperiment() caller (obs_report)
 * does export.
 */

#ifndef PIPM_BENCH_COMMON_HH
#define PIPM_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "workloads/workload.hh"

namespace pipmbench
{

/** Run-length options resolved from the environment. */
struct Options
{
    std::uint64_t measureRefs = 150'000;
    std::uint64_t warmupRefs = 40'000;
    std::uint64_t seed = 42;
    std::string cachePath = "pipm_bench_cache.tsv";
    unsigned jobs = 1;   ///< Sweep::run worker threads

    // Observability (DESIGN.md §10), resolved from PIPM_STATS_JSON /
    // PIPM_OBS_INTERVAL / PIPM_OBS_TRACE / PIPM_OBS_WATCH.
    std::string statsJsonPath;      ///< "" disables the export
    std::uint64_t obsInterval = 0;  ///< measured accesses per interval
    std::uint64_t obsTrace = 0;     ///< event-trace ring capacity
    std::string obsWatch;           ///< comma-separated watched lines
};

/** Read the PIPM_BENCH_* environment variables. */
Options optionsFromEnv();

/**
 * Shared argv handling for harnesses whose knobs are all environment
 * variables: prints usage (with the PIPM_BENCH_* knob table and the
 * harness's one-line description `what`) and exits 0 on --help/-h, and
 * exits 2 on any other argument. Previously every harness silently
 * ignored argv, so a typo like `fig10_end_to_end --refs=100` ran the
 * full default sweep instead of failing fast. No-op when argc == 1.
 */
void handleHarnessArgs(int argc, char **argv, const char *name,
                       const char *what);

/** Build the RunConfig corresponding to the options. */
pipm::RunConfig runConfigOf(const Options &opts);

/**
 * A batch of experiments, loaded from the cache or executed on a thread
 * pool.
 *
 * Harnesses add() every combination they report, call run() once, and
 * read the i-th add()'s result at index i (add() returns it).
 * Duplicates are fine: they dedupe by cache key and each gets its own
 * (equal) result.
 * run() simulates only the cache misses, with PIPM_BENCH_JOBS worker
 * threads, and merges the new rows into the cache file in one atomic
 * replace. Results are independent of the job count: every experiment
 * is a self-contained seeded simulation.
 */
class Sweep
{
  public:
    explicit Sweep(const Options &opts) : opts_(opts) {}

    /**
     * Enqueue one experiment (the config is copied; the workload must
     * outlive run()).
     * @return the experiment's index in run()'s results
     */
    std::size_t add(const pipm::SystemConfig &cfg, pipm::Scheme scheme,
                    const pipm::Workload &workload);

    /**
     * Simulate every enqueued experiment the cache does not hold, merge
     * the new rows into the cache file, and return one result per add()
     * in add() order. Each result is its cache row read back (a miss
     * is serialised first), so a warm and a cold cache give the same
     * digits; `workload` and `scheme` are set. One "[bench] running
     * workload/scheme..." stderr line is printed per simulation.
     */
    std::vector<pipm::RunResult> run();

  private:
    struct Item
    {
        pipm::SystemConfig cfg;
        pipm::Scheme scheme;
        const pipm::Workload *workload;
        std::string key;
    };

    Options opts_;
    std::vector<Item> items_;
};

/**
 * The cache file's first line: "key" and every stored runResultFields
 * name, tab-separated. A file with any other first line is ignored and
 * replaced by the next merge.
 */
std::string cacheHeader();

/** A named paper fault schedule layered on paperFaultConfig. */
struct FaultSchedule
{
    const char *name;
    /** PIPM_BENCH_FAULTS digit alias; nullptr: a verify_faults domain
     *  only, which PIPM_BENCH_FAULTS does not select. */
    const char *code;
    pipm::FaultConfig (*make)(std::uint64_t seed);
};

/** The named schedules: PIPM_BENCH_FAULTS modes and verify_faults domains. */
inline constexpr FaultSchedule faultSchedules[] = {
    // Host fail-stop crash and cold rejoin (DESIGN.md §8).
    {"crash", "2",
     [](std::uint64_t seed) { return pipm::paperCrashFaultConfig(seed); }},
    // The crash schedule under lease detection, gray-failure stall
    // windows and transaction retries (DESIGN.md §11).
    {"suspect", "3",
     [](std::uint64_t seed) {
         return pipm::paperSuspicionFaultConfig(seed);
     }},
    // Device-metadata corruption: scrub-and-repair, journal replay,
    // degraded fallback and the migration circuit breaker (§12).
    {"meta", "4",
     [](std::uint64_t seed) { return pipm::paperMetaFaultConfig(seed); }},
    // The chaos soak: metadata corruption over the suspect schedule.
    {"chaos", nullptr,
     [](std::uint64_t seed) {
         pipm::FaultConfig f = pipm::paperSuspicionFaultConfig(seed);
         pipm::addPaperMetaFaults(f);
         return f;
     }},
};

/**
 * Enable the fault schedule PIPM_BENCH_FAULTS names on `cfg`, seeded
 * with `seed` (Options::seed): "1" the paper-default schedule, else the
 * coded faultSchedules entry with that name or code. Unset, empty or
 * "0" leaves faults off; any other value prints the accepted ones and
 * exits 2.
 * @return whether faults were enabled
 */
bool applyEnvFaults(pipm::SystemConfig &cfg, std::uint64_t seed);

/** base.execCycles / x.execCycles (speedup of x over base). */
double speedupOver(const pipm::RunResult &base, const pipm::RunResult &x);

/** Geometric mean of a vector of ratios. */
double geomean(const std::vector<double> &xs);

} // namespace pipmbench

#endif // PIPM_BENCH_COMMON_HH
