/**
 * @file
 * Seeded, deterministic fault injection for the CXL fabric and the PIPM
 * migration engine (DESIGN.md §7).
 *
 * One FaultInjector is shared by the whole system and drives four fault
 * classes:
 *
 *  - transient link CRC errors: a corrupted flit costs a replay round
 *    trip and a second serialisation charge (modelled in cxl/link.cc);
 *  - link retraining: each host's link goes down for a fixed window on
 *    its own deterministic phase within a configurable period, stalling
 *    queued traffic until the window ends;
 *  - poisoned lines in CXL DRAM: transient poison forces one ECC retry
 *    read, persistent poison makes the line uncacheable — the system
 *    serves it through a degraded remote-access path that never fills a
 *    cache or allocates a directory entry;
 *  - mid-migration faults: a promotion or an incremental line migration
 *    aborts; the system rolls back (promotion) or idempotently completes
 *    (line writeback falls through to CXL memory) so that no line is
 *    ever doubly mapped or unreachable;
 *  - host fail-stop crashes (DESIGN.md §8): a pre-generated schedule of
 *    per-host crash (and optional rejoin) events. The injector only owns
 *    the *schedule* and the crash counters; the reclamation itself
 *    (directory sweep, remap reintegration, epoch bump) is done by
 *    MultiHostSystem::crashHost()/rejoinHost() when an event falls due;
 *  - gray-failure stall windows (DESIGN.md §11): pre-generated per-host
 *    intervals during which a host is alive but unresponsive. Like the
 *    crash schedule they come from their own derived stream, so enabling
 *    them leaves every other fault draw bit-identical. The injector only
 *    owns the window schedule; the lease detector in MultiHostSystem
 *    decides whether a stall is ridden out by transaction retries or
 *    expires the lease and fences the host.
 *
 * All link-message draws come from one xoshiro stream seeded from the
 * fault seed; per-line poison and retraining phases are stateless hash
 * draws, so they are independent of access order. The crash schedule is
 * generated at construction from its own derived stream, so turning
 * crashes on does not shift any other fault draw. A config with every
 * rate at zero makes no draws at all, which keeps a zero-fault run
 * bit-identical to a fault-disabled one.
 *
 * The injector also implements the degradation policy: the observed link
 * error rate is measured over windows of `backoffWindow` messages; when
 * it exceeds `backoffThreshold`, migrations are suspended for an
 * exponentially growing interval (reset by a healthy window), so the
 * migration engine stops churning remap state over a flaky fabric.
 */

#ifndef PIPM_FAULT_FAULT_INJECTOR_HH
#define PIPM_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/trace.hh"

namespace pipm
{

/** Poison status of one CXL DRAM line. */
enum class PoisonState : std::uint8_t
{
    clean,
    transientPoison,   ///< one ECC retry scrubs it
    persistentPoison   ///< uncacheable; degraded path forever
};

/**
 * One scheduled device-metadata corruption event (DESIGN.md §12). The
 * injector owns only the schedule; the system layer picks the concrete
 * victim entry (directory or remap) deterministically from `pick` and
 * quarantines it until the scrubber or a demand access repairs it.
 */
struct MetaCorruptEvent
{
    Cycles at = 0;              ///< when the corruption lands
    std::uint64_t pick = 0;     ///< victim-selection draw
    std::uint64_t bits = 0;     ///< non-zero bit-flip mask
    bool remapTarget = false;   ///< false: directory entry, true: remap
    bool shadowHit = false;     ///< also spans the shadow checksum
};

/** One scheduled host fail-stop or rejoin event. */
struct CrashEvent
{
    Cycles at = 0;              ///< when the event fires
    HostId host = invalidHost;  ///< which host
    bool rejoin = false;        ///< false: crash, true: rejoin
    /** For crash events: when the host comes back (maxCycles: never). */
    Cycles downUntil = maxCycles;
};

/** Deterministic fault source shared by links, device and migration. */
class FaultInjector
{
  public:
    /**
     * @param cfg fault rates and windows
     * @param num_hosts host count (per-host retraining phases)
     * @param seed stream seed (mix of run seed and cfg.seed)
     */
    FaultInjector(const FaultConfig &cfg, unsigned num_hosts,
                  std::uint64_t seed);

    // ---- Link faults ---------------------------------------------------

    /**
     * Draw the CRC fate of one link message and feed the error-rate
     * window that drives migration backoff.
     * @return true when the message is corrupted and must be replayed
     */
    bool corruptMessage(Cycles now);

    /**
     * Cycles host h's link is still down for retraining at `now` (0 when
     * the link is up). Counts each retraining window once.
     */
    Cycles retrainDelay(HostId h, Cycles now);

    // ---- Poisoned lines ------------------------------------------------

    /**
     * Poison status of a CXL DRAM line at a device read. The per-line
     * draw is stateless, so only a non-clean one is memoised: transient
     * poison is scrubbed by the retry (later checks return clean),
     * persistent poison is forever. A clean draw stores nothing.
     */
    PoisonState poisonCheck(LineAddr line);

    /** Whether a line has been discovered persistently poisoned. */
    bool linePersistentlyPoisoned(LineAddr line) const;

    /**
     * Force a line into the persistent-poison state. Used by the crash
     * recovery policy `poison`: the device marks lines whose only
     * up-to-date copy died with a host, so later accesses observably
     * take the degraded path instead of silently reading stale data.
     */
    void poisonLineForever(LineAddr line);

    // ---- Host fail-stop crashes -----------------------------------------

    /**
     * The next scheduled crash/rejoin event due at or before `now`, or
     * nullptr. Each event is returned exactly once, in time order; the
     * caller (MultiHostSystem::tick) performs the reclamation.
     */
    const CrashEvent *nextCrashEvent(Cycles now);

    /** The full pre-generated schedule (tests and tools). */
    const std::vector<CrashEvent> &crashSchedule() const
    {
        return crashSchedule_;
    }

    /**
     * The strict total order schedule events are sorted (and processed)
     * in: earlier time first; at the same instant rejoins before
     * crashes (keeping alive counts conservative) and lower host IDs
     * first. Exposed so the regression test can pin same-instant
     * ordering. Stall windows need no entry in this order: they are
     * level-triggered state queried through stallUntil(), and a window
     * coinciding with a crash instant is subsumed because liveness is
     * always checked before stalledness.
     */
    static bool
    eventBefore(const CrashEvent &a, const CrashEvent &b)
    {
        if (a.at != b.at)
            return a.at < b.at;
        if (a.rejoin != b.rejoin)
            return a.rejoin;
        return a.host < b.host;
    }

    // ---- Gray-failure stall windows --------------------------------------

    /**
     * End of the stall window covering `now` for host h, or 0 when the
     * host is responsive. Counts (and traces) each window once, on the
     * first query that lands inside it.
     */
    Cycles stallUntil(HostId h, Cycles now);

    /** Side-effect-free variant for invariant checks and tests. */
    Cycles stallUntilAt(HostId h, Cycles now) const;

    /** Host h's pre-generated [start, end) stall windows. */
    const std::vector<std::pair<Cycles, Cycles>> &
    stallWindows(HostId h) const
    {
        return stallWindows_[h];
    }

    // ---- Device-metadata corruption (DESIGN.md §12) ----------------------

    /**
     * The next scheduled metadata corruption event due at or before
     * `now`, or nullptr. Each event is returned exactly once, in time
     * order; the caller (MultiHostSystem::tick) picks the victim entry
     * and applies the corruption.
     */
    const MetaCorruptEvent *nextMetaCorruptEvent(Cycles now);

    /** The full pre-generated corruption schedule (tests and tools). */
    const std::vector<MetaCorruptEvent> &metaCorruptSchedule() const
    {
        return metaSchedule_;
    }

    /**
     * Feed the per-page-group migration circuit breaker one
     * repair/quarantine event. Enough strikes inside one window open the
     * breaker: migrations of pages in the group are shed until the
     * cool-down (which doubles per consecutive trip) elapses and the
     * breaker half-opens.
     */
    void noteMetaRepair(PageFrame page, Cycles now);

    /** Whether page's group breaker is open (migration shed). */
    bool migrationShed(PageFrame page, Cycles now) const;

    /**
     * Advance breaker state to `now`: open breakers whose cool-down
     * elapsed half-open (counted and traced), and a breaker that stays
     * clean for a full window after half-opening forgets its trip
     * history (the cool-down exponent resets).
     */
    void advanceBreakers(Cycles now);

    // ---- Event-horizon peeks (DESIGN.md §9) ------------------------------
    // MultiHostSystem::tick() only runs its slow path when simulated time
    // reaches the earliest due event; these expose the injector-owned
    // schedule heads without consuming them.

    /** Time of the next unconsumed crash/rejoin event (maxCycles: none). */
    Cycles
    nextCrashEventAt() const
    {
        return crashCursor_ < crashSchedule_.size()
                   ? crashSchedule_[crashCursor_].at
                   : maxCycles;
    }

    /** Time of the next unconsumed corruption event (maxCycles: none). */
    Cycles
    nextMetaCorruptEventAt() const
    {
        return metaCursor_ < metaSchedule_.size()
                   ? metaSchedule_[metaCursor_].at
                   : maxCycles;
    }

    /**
     * Earliest pending breaker transition among the hot breakers: an
     * open breaker's half-open time, or a probation breaker's
     * trip-history reset time (maxCycles: none pending). A probation
     * breaker with strikes outstanding has no timed transition — its
     * next change comes through noteMetaRepair(), which the system
     * layer treats as a horizon invalidation point.
     */
    Cycles nextBreakerEventAt() const;

    // ---- Detection-layer helpers -----------------------------------------

    /** The fault configuration the injector was built with. */
    const FaultConfig &config() const { return cfg_; }

    /** Stateless uniform draw from (seed, key): retry jitter etc. */
    std::uint64_t hashDraw(std::uint64_t key) const;

    /** A coherence-transaction attempt timed out. */
    void noteTxnTimeout() { txnTimeouts.inc(); }

    /** A timed-out transaction is being retried (attempt >= 1). */
    void
    noteTxnRetry(HostId requester, Cycles now, unsigned attempt)
    {
        txnRetries.inc();
        if (trace_) {
            trace_->record(ObsEventType::txnRetry, now, 0, requester,
                           attempt);
        }
    }

    // ---- Migration faults ----------------------------------------------

    /** Draw whether a fault lands mid-promotion (roll back if so). */
    bool abortPromotion();

    /** Draw whether a fault lands mid-line-migration (complete to CXL). */
    bool abortLineMigration();

    /** Whether migrations are currently backed off (degraded link). */
    bool
    migrationsSuspended(Cycles now) const
    {
        return now < backoffUntil_;
    }

    // ---- Observability ---------------------------------------------------

    /**
     * Attach an event trace (nullptr: detach). The injector records
     * retraining-window entries and backoff re-arms; poison discoveries
     * are recorded by the system layer, which knows the accessing host.
     */
    void attachTrace(ObsTrace *trace) { trace_ = trace; }

    // ---- Stats ----------------------------------------------------------

    StatGroup &stats() { return stats_; }

    Counter linkErrors;          ///< CRC-corrupted messages replayed
    Counter retrainEvents;       ///< retraining windows entered
    Counter retrainStallCycles;  ///< cycles messages waited on retraining
    Counter poisonTransient;     ///< transiently poisoned lines hit
    Counter poisonPersistent;    ///< persistently poisoned lines found
    Counter degradedAccesses;    ///< accesses served by the degraded path
    Counter promotionAborts;     ///< promotions aborted and rolled back
    Counter lineAborts;          ///< line migrations aborted mid-flight
    Counter migrationsDeferred;  ///< vote firings suppressed by backoff
    Counter backoffEntries;      ///< times the backoff window re-armed

    // Host fail-stop crash accounting (filled in by the system layer).
    Counter hostCrashes;         ///< fail-stop crash events processed
    Counter hostRejoins;         ///< rejoin events processed
    Counter crashDirSwept;       ///< directory entries reclaimed on crash
    Counter crashLinesReclaimed; ///< migrated lines reintegrated on crash
    Counter crashPagesReclaimed; ///< remap/GIM pages reclaimed on crash
    Counter crashDirtyLinesLost; ///< lines whose latest value died
    Counter crashRecoveryCycles; ///< device cycles spent on reclamation
    Counter staleEpochDrops;     ///< stale-epoch references rejected

    // Lease detection / gray failure (filled in by the system layer).
    // Registered with the stat group only when a lease is configured, so
    // oracle-mode stats.json exports keep their pre-detection counter
    // set.
    Counter suspicions;          ///< hosts suspected by the lease detector
    Counter falseSuspicions;     ///< suspicions of hosts that were alive
    Counter fencedRequests;      ///< zombie requests NACKed at the device
    Counter txnTimeouts;         ///< transaction attempts that timed out
    Counter txnRetries;          ///< timed-out transactions retried
    Counter txnAbandoned;        ///< transactions given up after retries
    Counter stallWindowsEntered; ///< gray-failure stall windows entered

    // Device-metadata fault domain (DESIGN.md §12; mostly filled in by
    // the system layer). Registered with the stat group only when
    // metadata corruption is configured, so corruption-off stats.json
    // exports keep their pre-§12 counter set.
    Counter metaCorruptions;     ///< corruption events applied to an entry
    Counter metaCorruptSkipped;  ///< events that found no entry to corrupt
    Counter metaScrubChecks;     ///< quarantined entries validated
    Counter metaScrubRepairs;    ///< entries rebuilt from host state
    Counter metaJournalReplays;  ///< remap entries replayed from the journal
    Counter metaUnrepairable;    ///< shadow hits: degraded/force-reclaimed
    Counter metaBreakerTrips;    ///< migration circuit breakers opened
    Counter metaBreakerHalfOpens;///< breakers half-opened after cool-down

  private:
    FaultConfig cfg_;
    unsigned numHosts_;
    std::uint64_t seed_;
    Rng rng_;

    Cycles retrainInterval_;
    Cycles retrainWindow_;
    std::vector<Cycles> retrainPhase_;              ///< per host
    std::vector<std::uint64_t> lastRetrainEpoch_;   ///< per host

    std::uint64_t windowMessages_ = 0;
    std::uint64_t windowErrors_ = 0;
    Cycles backoffUntil_ = 0;
    unsigned backoffExp_ = 0;

    FlatMap<LineAddr, PoisonState> poison_;

    /** Generate the crash schedule (constructor helper). */
    void generateCrashSchedule();

    /** Generate the gray-failure stall windows (constructor helper). */
    void generateStallSchedule();

    std::vector<CrashEvent> crashSchedule_;   ///< sorted by eventBefore
    std::size_t crashCursor_ = 0;

    /** Per-host [start, end) stall windows, sorted, non-overlapping. */
    std::vector<std::vector<std::pair<Cycles, Cycles>>> stallWindows_;
    /** Per-host 1 + index of the last window counted (0: none yet). */
    std::vector<std::size_t> stallCounted_;

    /** Generate the metadata corruption schedule (constructor helper). */
    void generateMetaSchedule();

    std::vector<MetaCorruptEvent> metaSchedule_;   ///< sorted by time
    std::size_t metaCursor_ = 0;

    /** Per-page-group migration circuit breaker (DESIGN.md §12.4). */
    struct Breaker
    {
        unsigned strikes = 0;       ///< repairs seen in the current window
        Cycles windowStart = 0;     ///< start of the strike window
        Cycles openUntil = 0;       ///< when an open breaker half-opens
        Cycles halfOpenAt = 0;      ///< when the breaker last half-opened
        unsigned exp = 0;           ///< consecutive-trip cool-down exponent
        bool open = false;          ///< migrations currently shed
        bool hot = false;           ///< on the advanceBreakers work list
    };
    FlatMap<std::uint64_t, Breaker> breakers_;
    std::vector<std::uint64_t> hotBreakers_;   ///< groups needing advance
    Cycles breakerWindow_ = 0;
    Cycles breakerCooldown_ = 0;

    ObsTrace *trace_ = nullptr;

    StatGroup stats_;
};

} // namespace pipm

#endif // PIPM_FAULT_FAULT_INJECTOR_HH
