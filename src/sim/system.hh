/**
 * @file
 * The multi-host CXL-DSM system model: hosts (cores' caches, local DRAM,
 * CXL link, local remapping cache), the CXL memory node (device coherence
 * directory, CXL DRAM, global remapping cache), the coherence protocol of
 * Fig. 2 with the GIM inter-host path of Fig. 3, and — depending on the
 * selected scheme — either OS whole-page migration (Nomad/Memtis/HeMem/
 * OS-skew) or the PIPM/HW-static partial-and-incremental mechanism with
 * the coherence extensions of Fig. 9.
 *
 * Coherence is modelled as atomic transactions (the paper's ZSim-style
 * lock-based scheme, §5.1.4): each LLC miss resolves its full protocol
 * flow at once, accumulating per-hop latency from the contended resources
 * it traverses (links, directory slices, DRAM banks) and updating every
 * coherence structure before the next transaction starts. Off-critical-
 * path traffic (writebacks, invalidation fan-out, migration copies) is
 * charged to the resources as bandwidth without extending the demand
 * access's latency.
 */

#ifndef PIPM_SIM_SYSTEM_HH
#define PIPM_SIM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "coherence/device_directory.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "cxl/link.hh"
#include "fault/fault_injector.hh"
#include "mem/dram.hh"
#include "mem/memory_image.hh"
#include "migration/harmful.hh"
#include "migration/os_policy.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace.hh"
#include "os/address_space.hh"
#include "os/tlb.hh"
#include "pipm/pipm_state.hh"
#include "pipm/remap_cache.hh"
#include "sim/scheme.hh"
#include "workloads/workload.hh"

namespace pipm
{

/** Outcome of one demand access. */
struct AccessResult
{
    Cycles latency = 0;       ///< cycles until the data returns
    /**
     * Serial kernel stall charged to the issuing core before the access
     * (migration work, TLB-shootdown IPIs). Unlike `latency`, this cannot
     * be hidden by the out-of-order window: the runner advances the
     * core's clock by it.
     */
    Cycles stall = 0;
    /** Data token read (reads only; 0 unless the run tracks values,
     *  see SystemConfig::trackValues). */
    std::uint64_t data = 0;
};

/** Analytic per-class latency estimates derived from a configuration. */
struct LatencyEstimates
{
    Cycles local = 0;   ///< LLC miss to local DRAM
    Cycles cxl = 0;     ///< cacheable 2-hop CXL access
    Cycles gim = 0;     ///< non-cacheable 4-hop inter-host access

    static LatencyEstimates from(const SystemConfig &cfg);
};

/** The simulated machine. */
class MultiHostSystem
{
  public:
    /**
     * @param cfg machine configuration
     * @param scheme memory-management scheme under test
     * @param workload the benchmark (provides footprints)
     * @param seed determinism seed
     */
    MultiHostSystem(const SystemConfig &cfg, Scheme scheme,
                    const Workload &workload, std::uint64_t seed);
    ~MultiHostSystem();

    MultiHostSystem(const MultiHostSystem &) = delete;
    MultiHostSystem &operator=(const MultiHostSystem &) = delete;

    /**
     * Execute one demand access issued by core `c` of host `h` at time
     * `now`. Includes any pending kernel stall charged to that core.
     * @param write_data token stored by writes (ignored for reads, and
     *        dropped when the run does not track values)
     */
    AccessResult access(HostId h, CoreId c, const MemRef &ref, Cycles now,
                        std::uint64_t write_data = 0);

    /**
     * Advance epoch machinery (OS migration schemes) and process any
     * crash/rejoin, corruption, scrub, breaker and lease events that
     * have fallen due.
     *
     * Event horizon (DESIGN.md §9): `nextEventCycle_` caches the
     * earliest cycle at which the slow path could take any action —
     * min over the injector's next crash/rejoin and corruption events,
     * the next scrub pass, the next breaker transition, every
     * heartbeat grid point, lease deadline and zombie readmission, and
     * the next OS epoch. Ticks before that are provably no-ops and
     * cost one compare. Mutators that re-arm any of those schedules
     * outside the slow path call invalidateEventHorizon().
     */
    void
    tick(Cycles now)
    {
        if (now < nextEventCycle_)
            return;
        tickSlow(now);
    }

    /** The cached event horizon (maxCycles: nothing pending). */
    Cycles nextEventCycle() const { return nextEventCycle_; }

    // ---- Host fail-stop crashes (DESIGN.md §8) -------------------------

    /**
     * Fail-stop host h at `now`: every cached line and local-DRAM-resident
     * migrated line of the host is gone. The device reclaims all state
     * referencing the host — directory entries are swept (S sharers
     * downgraded, dead-owned M entries dropped), partially migrated pages
     * are reintegrated to their CXL homes from the stale device copies
     * (per-line data loss counted and, under CrashRecoveryPolicy::poison,
     * poisoned), in-flight promotions roll back via the existing abort
     * path, and OS-migrated (GIM) pages are demoted without a data copy.
     * Normally driven by the injector's crash schedule via tick(); public
     * so tests can crash hosts at exact protocol states.
     * @param down_until when the host rejoins (maxCycles: never)
     */
    void crashHost(HostId h, Cycles now, Cycles down_until = maxCycles);

    /** Rejoin host h cold (empty caches/TLB/remap) under a new epoch. */
    void rejoinHost(HostId h, Cycles now);

    // ---- Lease-based failure detection (DESIGN.md §11) ------------------

    /**
     * Suspect host h: the device stops trusting it and runs the crash
     * reclamation path against its state. A host suspected while
     * actually alive (gray failure) is *fenced*: its epoch is bumped so
     * its stale requests are NACKed at the directory, its dirty cached
     * lines are lost exactly as in a real crash, and it readmits through
     * the cold-rejoin path after observing the fence. Normally driven by
     * lease expiry or transaction-retry exhaustion inside tick()/access();
     * public so tests can suspect hosts at exact protocol states. Only
     * valid when the lease detector is configured (fault.leaseNs > 0).
     */
    void suspectHost(HostId h, Cycles now);

    /** Whether the lease-based failure detector is active. */
    bool detectionEnabled() const { return detection_; }

    /**
     * End of the gray-failure stall window covering `now` for host h, or
     * 0 when the host is responsive. The runner parks a stalled host's
     * cores until the window ends (or the lease fences the host first).
     */
    Cycles hostStalledUntil(HostId h, Cycles now) const;

    /** Whether host h would answer a coherence request at `now`. */
    bool hostResponsive(HostId h, Cycles now) const;

    /** Whether host h is currently alive. */
    bool hostAlive(HostId h) const { return hostAlive_[h]; }

    /** Host h's epoch: even while alive, odd while crashed; bumped at
     *  every crash and rejoin (monotone). */
    std::uint32_t hostEpoch(HostId h) const { return hostEpoch_[h]; }

    /** When a crashed host h rejoins (maxCycles: never; 0: alive). */
    Cycles hostDownUntil(HostId h) const { return hostDownUntil_[h]; }

    /**
     * Every line whose latest value died with a host, in the order the
     * losses were discovered (append-only; lines can repeat across
     * crashes). The fault-schedule checker syncs its last-writer oracle
     * against this explicit lost-line set.
     */
    const std::vector<LineAddr> &lostLines() const { return lostLines_; }

    /** Reset all measurement stats (end of warmup). */
    void resetStats();

    // ---- Observability (DESIGN.md §10) ----------------------------------

    /**
     * Attach an event trace (nullptr: detach). Forwarded to the device
     * directory and the fault injector; the system layer itself records
     * migration decisions (promotions, revocations, aborts, OS epoch
     * migrations), poison discoveries, crash/rejoin events, and — for
     * watched lines — device-directory state transitions.
     */
    void attachTrace(ObsTrace *trace);

    /**
     * Register every stat group of this system with a telemetry
     * registry. Per-host groups (cache, local_dram, link, local_remap)
     * get a "hostN." prefix since their group names repeat across hosts.
     */
    void registerStats(MetricsRegistry &registry);

    /**
     * Visit every stat group reset at the warmup boundary, with the
     * prefix registerStats gives it. (The harmful tracker's lifetime
     * counters are not among them.)
     */
    void forEachStatGroup(
        const std::function<void(StatGroup &, const std::string &)> &fn);

    // ---- Introspection ------------------------------------------------

    const SystemConfig &config() const { return cfg_; }
    Scheme scheme() const { return scheme_; }
    AddressSpace &space() { return *space_; }
    PipmState *pipmState() { return pipm_.get(); }
    OsPolicy *osPolicy() { return osPolicy_.get(); }
    HarmfulTracker *harmfulTracker() { return harmful_.get(); }
    /** The value plane; reads 0 unless values are tracked. */
    MemoryImage &memory() { return mem_; }
    CacheHierarchy &hierarchy(HostId h) { return *hosts_[h].caches; }
    DeviceDirectory &deviceDirectory() { return deviceDir_; }
    CxlLink &link(HostId h) { return *hosts_[h].link; }
    Tlb *tlb(HostId h, CoreId c)
    {
        return hosts_[h].tlbs.empty() ? nullptr : &hosts_[h].tlbs[c];
    }
    DramDevice &localDram(HostId h) { return *hosts_[h].dram; }
    DramDevice &cxlDram() { return cxlDram_; }
    RemapCache *localRemapCache(HostId h)
    {
        return hosts_[h].localRemap.get();
    }
    RemapCache *globalRemapCache() { return globalRemap_.get(); }
    /** The fault injector, or nullptr when injection is disabled. */
    FaultInjector *faultInjector() { return faults_.get(); }

    /** Host a shared page is currently OS-migrated to (or invalidHost). */
    HostId gimHostOf(std::uint64_t shared_idx) const;

    /**
     * §6 software interface: allow or forbid partial migration of a
     * shared page (PIPM mechanism schemes only). Forbidding a currently
     * migrated page revokes it immediately.
     */
    void setPageMigrationAllowed(std::uint64_t shared_idx, bool allowed);

    /**
     * Check cross-structure coherence invariants (SWMR, directory
     * precision, bitmap consistency); panics on violation. For tests.
     */
    void checkInvariants() const;

    // ---- Measurement stats ---------------------------------------------

    Counter demandAccesses;      ///< all demand accesses
    Counter sharedAccesses;      ///< accesses to shared heap data
    Counter sharedLlcMisses;     ///< shared accesses missing the caches
    Counter localServedMisses;   ///< shared misses served by own local DRAM
    Counter cxlServedMisses;     ///< shared misses served by CXL memory
    Counter interHostAccesses;   ///< served from another host (cache/DRAM)
    Counter interHostStallCycles;///< latency of inter-host accesses
    Counter mgmtStallCycles;     ///< kernel migration stalls charged
    Counter migrationTransferBytes; ///< page-copy bytes (unscaled)
    Counter osMigrations;        ///< whole-page promotions executed
    Counter osDemotions;         ///< whole-page demotions executed
    Counter upgradeMisses;       ///< S->M upgrades
    Average avgSharedMissLatency;
    Average avgLocalMissLatency;
    Average avgCxlMissLatency;
    Average avgInterHostLatency;

    StatGroup &stats() { return stats_; }

  private:
    /** Everything belonging to one host. */
    struct Host
    {
        std::unique_ptr<CacheHierarchy> caches;
        std::unique_ptr<DramDevice> dram;
        std::unique_ptr<CxlLink> link;
        std::unique_ptr<RemapCache> localRemap;   ///< mechanism modes only
        std::vector<Cycles> pendingStall;         ///< per core
        std::vector<Tlb> tlbs;                    ///< per core (optional)
    };

    /** One demand access to a line, as every access path sees it. */
    struct LineAccess
    {
        LineAccess(HostId h_, CoreId c_, PhysAddr pa_, MemOp op,
                   Cycles now_, std::uint64_t wdata_,
                   std::uint64_t *rdata_)
            : h(h_), c(c_), pa(pa_), line(lineOf(pa_)), page(pageOf(pa_)),
              li(lineInPage(pa_)), isWrite(op == MemOp::write), now(now_),
              wdata(wdata_), rdata(rdata_)
        {
        }

        HostId h;
        CoreId c;
        PhysAddr pa;
        LineAddr line;
        PageFrame page;
        unsigned li;           ///< line index within its page
        bool isWrite;
        Cycles now;
        std::uint64_t wdata;   ///< token stored by a write
        std::uint64_t *rdata;  ///< receives the token a read returns
    };

    // ---- Access paths ---------------------------------------------------

    /** Cacheable access served by a.h's own DRAM: private data, an owned
     *  GIM page, or any shared line under Local-only. */
    Cycles localAccess(const LineAccess &a);

    /** Non-cacheable 4-hop access to another host's GIM memory (Fig. 3). */
    Cycles gimRemoteAccess(const LineAccess &a, HostId owner);

    /** Coherent access to the CXL-DSM pool (Fig. 2 + PIPM paths): serves
     *  hits, then dispatches a miss to the handler of its paper case. */
    Cycles cxlAccess(const LineAccess &a, std::uint64_t shared_idx);

    /** Serve a cache hit (upgrading a written S copy); nullopt on a miss. */
    std::optional<Cycles> cacheHit(const LineAccess &a);

    // Per-case miss handlers of cxlAccess: each takes the latency so far
    // and returns the access's total.

    /** Case 3: I' -> ME refill from the requester's local DRAM. */
    Cycles localRefill(const LineAccess &a, Cycles lat);

    /** Device M at another host: forward (Fig. 2 steps 3-5). */
    Cycles ownerForward(const LineAccess &a, DirEntry &entry, Cycles lat);

    /** Device S: a read joins the sharers, a write invalidates them. */
    Cycles sharedLineMiss(const LineAccess &a, DirEntry &entry, Cycles lat);

    /** pipm-naive (Fig. 8): redirect to the bit owner's local frame. */
    Cycles naiveRedirect(const LineAccess &a, HostId mh, Cycles lat);

    /** Cases 2/5/6: pull a line migrated into host mh back to CXL. */
    Cycles pullBack(const LineAccess &a, HostId mh, Cycles lat);

    /** Plain CXL memory miss (Fig. 2 step 7), or the poisoned path. */
    Cycles cxlMemoryMiss(const LineAccess &a, Cycles lat);

    /**
     * Degraded access to a persistently poisoned CXL line: the device
     * NAKs with poison, the host retries uncacheably. The line is never
     * filled into a cache and never gets a directory entry, so coherence
     * holds trivially; reads and writes go straight to (scrubbed) CXL
     * DRAM. Returns the extra latency beyond the initial device trip.
     */
    Cycles degradedLineAccess(const LineAccess &a);

    // ---- Protocol helpers ----------------------------------------------

    /** Fill a.line in `state`, handle the victim, hand a read its data. */
    void fill(const LineAccess &a, HostState state, bool dirty,
              std::uint64_t data);

    /** Miss bookkeeping, one per serving location. */
    void noteLocalServedMiss(Cycles lat);
    void noteCxlServedMiss(Cycles lat);
    void noteInterHostMiss(Cycles lat);

    /** Offset into host h's DRAM of a line that DRAM serves: its own
     *  local range, or a CXL line folded onto it under Local-only. */
    PhysAddr hostDramOffset(HostId h, PhysAddr pa) const;

    /** A miss's majority vote, and the promotion (or abort) it fires. */
    void deviceVote(HostId h, PageFrame page, Cycles now);

    /** a.line's directory entry after checking an M owner: a dead one is
     *  suspected and swept, a stale epoch dropped. Adds the wait to lat. */
    DirEntry *ownerCheckedEntry(const LineAccess &a, Cycles &lat);

    /** Read / write a migrated line's local frame at host `owner`;
     *  the read returns its DRAM latency. */
    Cycles readLocalFrame(HostId owner, PageFrame page, unsigned li,
                          Cycles now, std::uint64_t &data);
    void writeLocalFrame(HostId owner, PageFrame page, unsigned li,
                         std::uint64_t data, Cycles now);

    /** Host whose local frame holds the memory copy of a line under
     *  naive coherence (invalidHost otherwise, or when the bit is off). */
    HostId naiveBitHost(PageFrame page, unsigned li) const;

    /** Land dirty data in the line's memory copy: a live naive bit
     *  host's local frame (returned) or CXL memory (invalidHost). */
    HostId writeHome(LineAddr line, std::uint64_t data, Cycles now);

    /** A dirty copy leaves `from`'s cache: it crosses from's link to
     *  the device, which lands it with writeHome, forwarding it over the
     *  bit host's link when that is another host. */
    void writeBack(HostId from, LineAddr line, std::uint64_t data,
                   Cycles now);

    /** Invalidate every sharer but h; returns the slowest round trip. */
    Cycles invalidateSharers(const DirEntry &entry, LineAddr line, HostId h,
                             Cycles now);

    /** A device-M entry owned by h under its current epoch. */
    DirEntry exclusiveEntry(HostId h) const;

    /** Make `entry` exclusive to h (recording the transition). */
    void grantExclusive(DirEntry &entry, LineAddr line, HostId h,
                        Cycles now);

    /** S->M upgrade at the device directory (write hit on shared line). */
    Cycles upgrade(HostId h, LineAddr line, Cycles now);

    /** Handle one LLC eviction (cases 1 and 4 live here). */
    void handleEviction(HostId h, const CacheHierarchy::Eviction &ev,
                        Cycles now);

    /** Drop h from line's directory entry, freeing it when empty. */
    void releaseSharer(LineAddr line, HostId h);

    /** Invalidate a line at its (live, if `live_only`) sharers as its
     *  entry evaporates; returns the summed invalidation latency. */
    Cycles recallEntry(LineAddr line, const DirEntry &entry, bool live_only,
                       Cycles now);

    /** Allocate a device directory entry, processing any recall. */
    void dirAllocate(LineAddr line, DirEntry entry, Cycles now);

    /** Local remapping lookup on the LLC-miss path (cache or walk). */
    Cycles localRemapLookup(HostId h, PageFrame page, Cycles now);

    /** Global remapping lookup when forwarding inter-host requests. */
    Cycles globalRemapLookup(PageFrame page, Cycles now);

    /** Move every migrated line of a revoked page back to CXL memory. */
    void performRevocation(HostId owner, PageFrame page, Cycles now);

    /** Take and clear the pending kernel stall of a core. */
    Cycles takePendingStall(HostId h, CoreId c);

    /**
     * Record a directory state transition of a watched line (trace on).
     * aux packs old state in bits 15..8, new state in bits 7..0.
     */
    void
    noteDirState(LineAddr line, DevState old_state, DevState new_state,
                 HostId h, Cycles now)
    {
        if (trace_ && trace_->lineWatched(line)) {
            trace_->record(ObsEventType::dirTransition, now, line, h,
                           (static_cast<std::uint32_t>(old_state) << 8) |
                               static_cast<std::uint32_t>(new_state));
        }
    }

    /** Record an event when a trace is attached. */
    void
    traceEvent(ObsEventType type, Cycles now, PhysAddr addr, HostId h,
               std::uint32_t aux = 0)
    {
        if (trace_)
            trace_->record(type, now, addr, h, aux);
    }

    // ---- Event horizon (DESIGN.md §9) ------------------------------------

    /** tick()'s slow path: run every subsystem whose events fell due,
     *  then recompute the horizon. */
    void tickSlow(Cycles now);

    /** Recompute nextEventCycle_ from every armed schedule. */
    void recomputeEventHorizon();

    /**
     * Force the next tick() onto the slow path. Called wherever timed
     * state is re-armed outside tickSlow(): crashHost/rejoinHost/
     * suspectHost (reachable from access() via the retry engine) and
     * the demand-path corruption repairs that feed the breakers.
     */
    void invalidateEventHorizon() { nextEventCycle_ = 0; }

    // ---- Crash recovery --------------------------------------------------

    /** Drain crash/rejoin events from the injector's schedule. */
    void processCrashEvents(Cycles now);

    /** Mark host h dead until `down_until` and drop its volatile state
     *  (the common part of a crash and a fence). */
    void killHost(HostId h, Cycles down_until);

    /** Capture host h's dirty cached lines (pendingDirty_) and clear its
     *  volatile state (caches, TLBs, remap cache, pending stalls). */
    void flushHostVolatile(HostId h);

    /**
     * Reclaim every device-side structure referencing dead host h:
     * directory sweep, PIPM remap reintegration, GIM demotion, with
     * dirty-loss accounting against pendingDirty_[h]. In oracle mode
     * this runs synchronously inside crashHost(); under the lease
     * detector it is deferred until the host is suspected (or until its
     * rejoin, whichever comes first).
     */
    void reclaimHost(HostId h, Cycles now);

    // ---- Lease detection (DESIGN.md §11) ---------------------------------

    /** Stop trusting h's lease; false when it was already suspected. */
    bool markSuspected(HostId h, Cycles now);

    /** Advance heartbeats, fire lease expiries, readmit fenced zombies. */
    void advanceLeases(Cycles now);

    /** When host t would answer a request sent at `now` (maxCycles:
     *  never — the host is dead). */
    Cycles respondsAt(HostId t, Cycles now) const;

    /**
     * Run the link-layer timeout/retry engine against target t. On
     * abandonment (budget exhausted) counts the transaction and — when
     * `suspect_on_fail` — suspects the target, which reclaims its device
     * state; callers must then re-look-up any directory/remap state they
     * hold. Fan-out acks pass suspect_on_fail = false: they charge the
     * timeout latency but leave suspicion to the lease, so directory
     * entry pointers held across the fan-out loop stay valid.
     */
    TxnAwait awaitHost(HostId t, Cycles now, bool suspect_on_fail);

    /** Account a dirty line of a dead-unswept owner dropped outside the
     *  reclaim sweep (recall, OS page flush, unrepairable corruption). */
    void noteDeadOwnedDrop(LineAddr line, const DirEntry &entry);

    /** Naive coherence: sync the CXL home from a live cached copy among
     *  de's sharers, adding to lat; false when no live host caches it. */
    bool syncHomeFromLiveCopy(const DirEntry &de, LineAddr home, Cycles now,
                              Cycles &lat);

    /** Invalidate a page in every host's and the device's remap cache. */
    void invalidateRemapCaches(PageFrame page);

    /** Record one lost dirty line (counter, lostLines_, poison policy). */
    void noteLostLine(LineAddr line);

    // ---- Device-metadata fault domain (DESIGN.md §12) --------------------

    /** Pick and quarantine the victim of one corruption event. */
    void applyMetaCorruption(const MetaCorruptEvent &ev, Cycles now);

    /** One scrub pass: repair up to `budget` quarantined entries (crash
     *  sweeps repair all of them before trusting device metadata). */
    void runMetaScrub(Cycles now, unsigned budget);

    /**
     * Resolve an outstanding corruption of `line`'s directory entry:
     * probe-and-rebuild when the shadow checksum survived, else
     * invalidate the line everywhere and poison it onto the degraded
     * uncacheable path. Returns the validation/repair latency (demand
     * accesses pay it; the scrubber charges resources but hides it), 0
     * when the entry is not quarantined.
     */
    Cycles resolveDirCorruption(LineAddr line, Cycles now);

    /**
     * Resolve an outstanding corruption of host h's remap entry for
     * `page`: rebuild in place (checksum intact), replay from the redo
     * journal (shadow hit, journal still covers the page), or
     * force-reclaim the page onto its stale CXL home copies with
     * dirty-loss accounting (shadow hit, journal records overwritten).
     */
    Cycles resolveRemapCorruption(HostId h, PageFrame page, Cycles now);

    /** Validate-and-repair guard for any host's remap entry of a page. */
    Cycles metaGuardPage(PageFrame page, Cycles now);

    // ---- OS migration ----------------------------------------------------

    void runEpoch(Cycles now);
    bool executePromotion(std::uint64_t idx, HostId target, Cycles now);
    void executeDemotion(std::uint64_t idx, Cycles now);
    /** Flush a shared page's lines from all caches and the directory. */
    void flushSharedPage(std::uint64_t idx);
    /** Copy a remapped page's data to its new frame; shoot down its
     *  translation at every core. */
    void movePageData(std::uint64_t idx, PageFrame from, PageFrame to);

    SystemConfig cfg_;
    Scheme scheme_;
    std::uint64_t seed_;
    std::unique_ptr<AddressSpace> space_;
    MemoryImage mem_;

    std::unique_ptr<FaultInjector> faults_;   ///< nullptr: no injection
    std::unique_ptr<CxlSwitch> switch_;   ///< shared fabric stage
    std::vector<Host> hosts_;
    DeviceDirectory deviceDir_;
    DramDevice cxlDram_;
    std::unique_ptr<RemapCache> globalRemap_;   ///< mechanism modes only

    std::unique_ptr<PipmState> pipm_;
    std::unique_ptr<OsPolicy> osPolicy_;
    std::unique_ptr<HarmfulTracker> harmful_;
    std::vector<HostId> migratedTo_;   ///< OS placement per shared page
    Cycles nextEpoch_ = 0;

    // ---- Host liveness (DESIGN.md §8) -----------------------------------
    std::vector<std::uint8_t> hostAlive_;     ///< per host: currently up?
    std::vector<std::uint32_t> hostEpoch_;    ///< even alive / odd crashed
    std::vector<Cycles> hostDownUntil_;       ///< rejoin time (0: alive)
    std::vector<LineAddr> lostLines_;         ///< dirty losses, in order

    // ---- Lease detection (DESIGN.md §11) ---------------------------------
    bool detection_ = false;        ///< fault.leaseNs > 0
    Cycles leaseCycles_ = 0;
    Cycles heartbeatCycles_ = 0;
    Cycles readmitCycles_ = 0;
    /** Host is dead but its device state has not been reclaimed yet. */
    std::vector<std::uint8_t> needsReclaim_;
    /** Device still trusts the host's lease (not suspected/fenced). */
    std::vector<std::uint8_t> trusted_;
    std::vector<Cycles> lastHeartbeat_;   ///< last renewal delivered
    std::vector<Cycles> nextHeartbeat_;   ///< next renewal grid point
    /** Fenced zombie readmission time (0: not a fenced zombie). */
    std::vector<Cycles> zombieReadmitAt_;
    /** Dirty values captured at death, awaiting the reclaim sweep. The
     *  reclaim path only ever looks entries up by key or sorts the keys
     *  before sweeping, so the FlatMap's unspecified iteration order is
     *  never observable (DESIGN.md §9 determinism caveat). */
    std::vector<FlatMap<LineAddr, std::uint64_t>> pendingDirty_;

    // ---- Device-metadata fault domain (DESIGN.md §12) --------------------
    bool metaFaults_ = false;       ///< fault.metaCorruptMeanIntervalNs > 0
    Cycles metaScrubInterval_ = 0;
    Cycles nextMetaScrub_ = 0;

    // ---- Event horizon (DESIGN.md §9) ------------------------------------
    /** Earliest cycle at which tickSlow() could act (0 forces a slow
     *  tick; maxCycles: no subsystem has anything pending). */
    Cycles nextEventCycle_ = 0;

    bool naiveCoherence_ = false;   ///< §4.3.1 strawman coherence
    LatencyEstimates est_;
    ObsTrace *trace_ = nullptr;     ///< event trace (nullptr: off)
    StatGroup stats_;
};

} // namespace pipm

#endif // PIPM_SIM_SYSTEM_HH
