/**
 * @file
 * Experiment runner: executes one (workload, scheme, configuration)
 * combination and reports the measurements every paper figure consumes.
 *
 * Simulation follows the paper's methodology (§5.1.2): traces are replayed
 * through the core models after a warmup phase; measurement covers a fixed
 * reference count per core. Cores advance in global time order (the core
 * with the smallest local clock issues next), which keeps contention on
 * the shared links, directory slices and DRAM banks causally ordered.
 */

#ifndef PIPM_SIM_RUNNER_HH
#define PIPM_SIM_RUNNER_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "sim/scheme.hh"
#include "workloads/workload.hh"

namespace pipm
{

/** How much to simulate. */
struct RunConfig
{
    std::uint64_t warmupRefsPerCore = 50'000;
    std::uint64_t measureRefsPerCore = 200'000;
    std::uint64_t seed = 42;
    /** Sample footprint ratios every this many measured accesses. */
    std::uint64_t footprintSampleEvery = 50'000;
    /**
     * Run MultiHostSystem::checkInvariants() every this many accesses
     * (0: disabled). The PIPM_CHECK_INVARIANTS environment variable, when
     * set and non-empty, overrides this value. Crash/rejoin events always
     * check regardless of this knob.
     */
    std::uint64_t checkInvariantsEvery = 0;
    /**
     * Core scheduler: "heap" (indexed min-heap, the default) or "scan"
     * (the historical linear min-clock scan, kept as the reference
     * implementation). Both produce bit-identical runs; the knob exists
     * so that claim stays testable. Empty: resolve from PIPM_SCHED,
     * defaulting to "heap". Anything else panics.
     */
    std::string scheduler;

    // ---- Observability (DESIGN.md §10) ----------------------------------

    /** Write the per-interval telemetry export here ("" disables it). */
    std::string statsJsonPath;
    /** Measured accesses per telemetry interval (0: total/8, min 1). */
    std::uint64_t obsIntervalAccesses = 0;
    /** Event-trace ring capacity in events (0: tracing off). */
    std::uint64_t obsTraceCapacity = 0;
    /** Comma-separated line addresses to watch for directory tracing. */
    std::string obsWatchLines;
    /**
     * When true, the PIPM_STATS_JSON / PIPM_OBS_INTERVAL /
     * PIPM_OBS_TRACE / PIPM_OBS_WATCH environment variables override the
     * fields above (same pattern as PIPM_CHECK_INVARIANTS). Harnesses
     * that run many experiments concurrently resolve the environment
     * once themselves and set this false, so parallel workers never race
     * on one output path.
     */
    bool obsFromEnv = true;
};

/** Everything a figure harness needs from one run. */
struct RunResult
{
    std::string workload;
    Scheme scheme = Scheme::native;

    Cycles execCycles = 0;          ///< measured wall time (max over cores)
    std::uint64_t instructions = 0; ///< retired in measurement
    double ipc = 0.0;               ///< per-core IPC

    std::uint64_t sharedAccesses = 0;
    std::uint64_t sharedLlcMisses = 0;
    std::uint64_t localServedMisses = 0;
    std::uint64_t cxlServedMisses = 0;
    std::uint64_t interHostAccesses = 0;
    std::uint64_t interHostStallCycles = 0;
    std::uint64_t mgmtStallCycles = 0;
    std::uint64_t migrationTransferBytes = 0;
    std::uint64_t osMigrations = 0;
    std::uint64_t osDemotions = 0;

    std::uint64_t pipmPromotions = 0;
    std::uint64_t pipmRevocations = 0;
    std::uint64_t pipmLinesIn = 0;
    std::uint64_t pipmLinesBack = 0;

    std::uint64_t harmfulMigrations = 0;
    std::uint64_t totalTrackedMigrations = 0;

    // Fault injection (all zero when cfg.fault.enabled is false).
    std::uint64_t linkCrcErrors = 0;     ///< corrupted+replayed messages
    std::uint64_t linkRetrainEvents = 0; ///< retraining windows hit
    std::uint64_t poisonEvents = 0;      ///< poisoned lines encountered
    std::uint64_t degradedAccesses = 0;  ///< uncacheable poisoned-line trips
    std::uint64_t migrationAborts = 0;   ///< promotions + line moves aborted
    std::uint64_t migrationsDeferred = 0;///< vote firings backed off

    // Host fail-stop crashes (DESIGN.md §8; all zero without a crash
    // schedule).
    std::uint64_t hostCrashes = 0;       ///< fail-stop events processed
    std::uint64_t hostRejoins = 0;       ///< cold rejoins processed
    std::uint64_t crashLinesReclaimed = 0; ///< dir sweeps + remap/GIM lines
    std::uint64_t crashDirtyLinesLost = 0; ///< latest value died with a host
    std::uint64_t crashRecoveryCycles = 0; ///< device-side reclamation work

    // Lease-based failure detection (DESIGN.md §11; all zero with
    // fault.leaseNs == 0 — the oracle mode).
    std::uint64_t suspicions = 0;        ///< leases expired
    std::uint64_t falseSuspicions = 0;   ///< alive hosts fenced
    std::uint64_t fencedRequests = 0;    ///< zombie requests NACKed
    std::uint64_t txnTimeouts = 0;       ///< transaction attempts timed out
    std::uint64_t txnRetries = 0;        ///< retries after a timeout
    std::uint64_t stallWindows = 0;      ///< gray-failure windows entered

    // Device-metadata corruption (DESIGN.md §12; all zero unless
    // fault.metaCorruptMeanIntervalNs > 0).
    std::uint64_t metaCorruptions = 0;     ///< corruption events applied
    std::uint64_t metaCorruptSkipped = 0;  ///< events with no victim entry
    std::uint64_t metaScrubChecks = 0;     ///< quarantined entries validated
    std::uint64_t metaScrubRepairs = 0;    ///< entries rebuilt in place
    std::uint64_t metaJournalReplays = 0;  ///< remap entries replayed
    std::uint64_t metaUnrepairable = 0;    ///< degraded or reclaimed hits
    std::uint64_t metaBreakerTrips = 0;    ///< migration breakers opened
    std::uint64_t metaBreakerHalfOpens = 0;///< breakers half-opened

    /** Fig. 13: mean per-host local footprint / total footprint. */
    double pageFootprintFrac = 0.0;
    /** Fig. 13 (PIPM-line): actually migrated lines / total footprint. */
    double lineFootprintFrac = 0.0;

    /** Fig. 11: shared LLC misses served from own local DRAM. */
    double
    localHitRate() const
    {
        return sharedLlcMisses
                   ? static_cast<double>(localServedMisses) /
                         static_cast<double>(sharedLlcMisses)
                   : 0.0;
    }

    /** Fig. 5: fraction of migrations that hurt execution time. */
    double
    harmfulFraction() const
    {
        return totalTrackedMigrations
                   ? static_cast<double>(harmfulMigrations) /
                         static_cast<double>(totalTrackedMigrations)
                   : 0.0;
    }
};

/**
 * One row of the RunResult field table. Every export of a RunResult —
 * the bench-cache TSV, the stats.json totals, fuzz::fingerprintResult,
 * obs_report's cross-check and the fig10 fault summary — and
 * runExperiment's extraction walk runResultFields instead of naming
 * fields, so adding a field is two edits: the member and its row.
 */
struct RunResultField
{
    enum Kind
    {
        counter,   ///< uint64: sum of StatGroup counter columns at run end
        computed,  ///< uint64 or double: worked out by runExperiment itself
        derived,   ///< double: a function of other fields; never stored
    };

    const char *name;  ///< snake_case: stats.json totals key, TSV column
    Kind kind;
    bool fault;        ///< fault-injection domain (fig10 fault summary)
    std::uint64_t RunResult::*u64;
    double RunResult::*f64;
    double (RunResult::*fn)() const;
    /**
     * Counter columns ("group.stat") a counter field sums. A leading '.'
     * matches every column ending in it, e.g. ".link.crc_errors" sums
     * the per-host "hostN.link.crc_errors" columns.
     */
    std::array<const char *, 2> sources;

    /** Whether counter column `column` feeds this field. */
    bool
    sums(std::string_view column) const
    {
        for (const char *s : sources) {
            if (!s)
                continue;
            const std::string_view src(s);
            if (src.front() == '.' ? column.ends_with(src) : column == src)
                return true;
        }
        return false;
    }

    /** The value as a double (any kind). */
    double
    real(const RunResult &r) const
    {
        return u64 ? static_cast<double>(r.*u64)
                   : f64 ? r.*f64 : (r.*fn)();
    }
};

namespace detail
{

constexpr RunResultField
counterField(const char *name, std::uint64_t RunResult::*m,
             const char *src, const char *src2 = nullptr,
             bool fault = false)
{
    return {name, RunResultField::counter, fault, m, nullptr, nullptr,
            {src, src2}};
}

constexpr RunResultField
faultField(const char *name, std::uint64_t RunResult::*m, const char *src,
           const char *src2 = nullptr)
{
    return counterField(name, m, src, src2, true);
}

constexpr RunResultField
computedField(const char *name, std::uint64_t RunResult::*m)
{
    return {name, RunResultField::computed, false, m, nullptr, nullptr, {}};
}

constexpr RunResultField
computedField(const char *name, double RunResult::*m)
{
    return {name, RunResultField::computed, false, nullptr, m, nullptr, {}};
}

constexpr RunResultField
derivedField(const char *name, double (RunResult::*fn)() const)
{
    return {name, RunResultField::derived, false, nullptr, nullptr, fn, {}};
}

} // namespace detail

/** Every RunResult measurement, in export order. */
inline constexpr RunResultField runResultFields[] = {
    detail::computedField("exec_cycles", &RunResult::execCycles),
    detail::computedField("instructions", &RunResult::instructions),
    detail::computedField("ipc", &RunResult::ipc),
    detail::counterField("shared_accesses", &RunResult::sharedAccesses,
                         "system.shared_accesses"),
    detail::counterField("shared_llc_misses", &RunResult::sharedLlcMisses,
                         "system.shared_llc_misses"),
    detail::counterField("local_served_misses",
                         &RunResult::localServedMisses,
                         "system.local_served_misses"),
    detail::counterField("cxl_served_misses", &RunResult::cxlServedMisses,
                         "system.cxl_served_misses"),
    detail::counterField("inter_host_accesses",
                         &RunResult::interHostAccesses,
                         "system.inter_host_accesses"),
    detail::counterField("inter_host_stall_cycles",
                         &RunResult::interHostStallCycles,
                         "system.inter_host_stall_cycles"),
    detail::counterField("mgmt_stall_cycles", &RunResult::mgmtStallCycles,
                         "system.mgmt_stall_cycles"),
    detail::counterField("migration_transfer_bytes",
                         &RunResult::migrationTransferBytes,
                         "system.migration_transfer_bytes"),
    detail::counterField("os_migrations", &RunResult::osMigrations,
                         "system.os_migrations"),
    detail::counterField("os_demotions", &RunResult::osDemotions,
                         "system.os_demotions"),
    detail::counterField("pipm_promotions", &RunResult::pipmPromotions,
                         "pipm.promotions"),
    detail::counterField("pipm_revocations", &RunResult::pipmRevocations,
                         "pipm.revocations"),
    detail::counterField("pipm_lines_in", &RunResult::pipmLinesIn,
                         "pipm.lines_in"),
    detail::counterField("pipm_lines_back", &RunResult::pipmLinesBack,
                         "pipm.lines_back"),
    // Lifetime totals (the tracker is not reset at the warmup boundary),
    // so they cannot be rebuilt from interval deltas.
    detail::computedField("harmful_migrations",
                          &RunResult::harmfulMigrations),
    detail::computedField("total_tracked_migrations",
                          &RunResult::totalTrackedMigrations),
    detail::faultField("link_crc_errors", &RunResult::linkCrcErrors,
                       ".link.crc_errors"),
    detail::faultField("link_retrain_events", &RunResult::linkRetrainEvents,
                       "fault.retrain_events"),
    detail::faultField("poison_events", &RunResult::poisonEvents,
                       "fault.poison_transient", "fault.poison_persistent"),
    detail::faultField("degraded_accesses", &RunResult::degradedAccesses,
                       "fault.degraded_accesses"),
    detail::faultField("migration_aborts", &RunResult::migrationAborts,
                       "fault.promotion_aborts", "fault.line_aborts"),
    detail::faultField("migrations_deferred",
                       &RunResult::migrationsDeferred,
                       "fault.migrations_deferred"),
    detail::faultField("host_crashes", &RunResult::hostCrashes,
                       "fault.host_crashes"),
    detail::faultField("host_rejoins", &RunResult::hostRejoins,
                       "fault.host_rejoins"),
    detail::faultField("crash_lines_reclaimed",
                       &RunResult::crashLinesReclaimed,
                       "fault.crash_dir_swept", "fault.crash_lines_reclaimed"),
    detail::faultField("crash_dirty_lines_lost",
                       &RunResult::crashDirtyLinesLost,
                       "fault.crash_dirty_lines_lost"),
    detail::faultField("crash_recovery_cycles",
                       &RunResult::crashRecoveryCycles,
                       "fault.crash_recovery_cycles"),
    detail::faultField("suspicions", &RunResult::suspicions,
                       "fault.suspicions"),
    detail::faultField("false_suspicions", &RunResult::falseSuspicions,
                       "fault.false_suspicions"),
    detail::faultField("fenced_requests", &RunResult::fencedRequests,
                       "fault.fenced_requests"),
    detail::faultField("txn_timeouts", &RunResult::txnTimeouts,
                       "fault.txn_timeouts"),
    detail::faultField("txn_retries", &RunResult::txnRetries,
                       "fault.txn_retries"),
    detail::faultField("stall_windows", &RunResult::stallWindows,
                       "fault.stall_windows"),
    detail::faultField("meta_corruptions", &RunResult::metaCorruptions,
                       "fault.meta_corruptions"),
    detail::faultField("meta_corrupt_skipped",
                       &RunResult::metaCorruptSkipped,
                       "fault.meta_corrupt_skipped"),
    detail::faultField("meta_scrub_checks", &RunResult::metaScrubChecks,
                       "fault.meta_scrub_checks"),
    detail::faultField("meta_scrub_repairs", &RunResult::metaScrubRepairs,
                       "fault.meta_scrub_repairs"),
    detail::faultField("meta_journal_replays",
                       &RunResult::metaJournalReplays,
                       "fault.meta_journal_replays"),
    detail::faultField("meta_unrepairable", &RunResult::metaUnrepairable,
                       "fault.meta_unrepairable"),
    detail::faultField("meta_breaker_trips", &RunResult::metaBreakerTrips,
                       "fault.meta_breaker_trips"),
    detail::faultField("meta_breaker_half_opens",
                       &RunResult::metaBreakerHalfOpens,
                       "fault.meta_breaker_half_opens"),
    detail::computedField("page_footprint_frac",
                         &RunResult::pageFootprintFrac),
    detail::computedField("line_footprint_frac",
                         &RunResult::lineFootprintFrac),
    detail::derivedField("local_hit_rate", &RunResult::localHitRate),
    detail::derivedField("harmful_fraction", &RunResult::harmfulFraction),
};

class MultiHostSystem;

/**
 * Add every counter field's source columns, summed over the stat groups
 * of `system`, to `out`. runExperiment and the fault-schedule checker
 * both extract counters this way.
 */
void addCounterFields(MultiHostSystem &system, RunResult &out);

/**
 * The PIPM_OBS_WATCH list: comma-separated line addresses, each a whole
 * decimal or 0x-prefixed hex number. Any other item ("12x", "", "-1")
 * is fatal rather than the end of the list.
 */
std::vector<PhysAddr> parseWatchLines(std::string_view list);

/** Run one experiment. */
RunResult runExperiment(const SystemConfig &cfg, Scheme scheme,
                        const Workload &workload, const RunConfig &run);

} // namespace pipm

#endif // PIPM_SIM_RUNNER_HH
