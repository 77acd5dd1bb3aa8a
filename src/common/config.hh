/**
 * @file
 * Configuration of the simulated multi-host CXL-DSM machine.
 *
 * Defaults reproduce Table 2 of the paper (the "scaled-down system
 * configuration"): 4 hosts x 4 OoO cores, 32 KB L1s, 2 MB/core shared LLC,
 * DDR5-4800 local DRAM + CXL-DSM pool, 50 ns / 5 GB/s CXL links, a 16-slice
 * device coherence directory, and the PIPM remapping caches (16 KB global,
 * 1 MB local) with migration threshold 8.
 *
 * Two additional scale knobs keep experiments laptop-sized (see DESIGN.md):
 *
 *  - footprintScale divides every workload footprint (48 GB -> 768 MB at
 *    the default of 64) together with the DRAM capacities, preserving the
 *    working-set-to-LLC and pages-to-remap-cache ratios;
 *  - timeScale divides the OS page-migration epoch *and* every per-epoch
 *    kernel cost by the same factor, preserving the overhead ratios that
 *    Fig. 4 measures while shrinking the cycles simulated per epoch.
 *
 * Demand-access latencies (cache, DRAM, CXL link) are never scaled; they
 * are the physics under study.
 */

#ifndef PIPM_COMMON_CONFIG_HH
#define PIPM_COMMON_CONFIG_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/types.hh"

namespace pipm
{

/** Core clock: 4 GHz, so 1 ns is 4 cycles. */
static constexpr unsigned cyclesPerNs = 4;

/** Convert nanoseconds to core cycles. */
constexpr Cycles
nsToCycles(double ns)
{
    return static_cast<Cycles>(ns * cyclesPerNs);
}

/** Out-of-order core parameters (Table 2). */
struct CoreConfig
{
    unsigned width = 6;           ///< retire width per cycle
    unsigned robEntries = 224;    ///< in-flight instruction window
    unsigned loadQueue = 72;      ///< max outstanding loads
    unsigned storeQueue = 56;     ///< max outstanding stores
    /**
     * L1 miss-status registers: bounds the number of long-latency loads
     * in flight (the LQ also holds cache hits, so it alone would
     * overstate achievable memory-level parallelism).
     */
    unsigned mshrs = 16;
    /** Latency above which a load occupies an MSHR slot. */
    Cycles mshrLatencyThreshold = 40;
};

/** One cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 0;
    unsigned ways = 8;
    Cycles roundTrip = 4;         ///< hit round-trip latency (core cycles)
};

/** DDR5 channel timing (Table 2: tRC-tRCD-tCL-tRP = 48-15-20-15 ns). */
struct DramConfig
{
    double tRCns = 48.0;
    double tRCDns = 15.0;
    double tCLns = 20.0;
    double tRPns = 15.0;
    unsigned channels = 1;
    unsigned banksPerChannel = 32;
    unsigned rowBytes = 8192;
    /** Peak per-channel bandwidth: DDR5-4800 is 38.4 GB/s ~= 9.6 B/cycle. */
    double bytesPerCycle = 9.6;
    /** Fixed controller/PHY overhead per access. */
    double controllerNs = 10.0;
};

/** One CXL link direction: fixed latency plus serialisation bandwidth. */
struct CxlLinkConfig
{
    double latencyNs = 50.0;       ///< per-direction propagation (Table 2)
    double bytesPerNs = 5.0;       ///< 5 GB/s per direction (Table 2)
    bool hasSwitch = false;        ///< extra hop through a CXL switch
    double switchNs = 25.0;        ///< per-traversal switch latency
    /** Aggregate switch bandwidth per direction (shared by all hosts). */
    double switchBytesPerNs = 20.0;
};

/** Device coherence directory on the CXL memory node (Table 2). */
struct DirectoryConfig
{
    unsigned sets = 2048;
    unsigned ways = 16;
    unsigned slices = 16;
    /** 32-cycle RT at 2 GHz = 16 ns = 64 core cycles. */
    Cycles roundTrip = nsToCycles(16.0);
};

/** The per-host local coherence directory. */
struct LocalDirectoryConfig
{
    unsigned sets = 4096;
    unsigned ways = 16;
    Cycles roundTrip = 8;
};

/** PIPM remapping structures (Sections 4.2 and 4.4, Table 2). */
struct PipmConfig
{
    /** Global remapping cache on the CXL device: 16 KB, 2 B entries. */
    std::uint64_t globalCacheBytes = 16 * 1024;
    unsigned globalCacheWays = 8;
    Cycles globalCacheRoundTrip = 4;
    /** Local remapping cache on each host RC: 1 MB, 4 B entries. */
    std::uint64_t localCacheBytes = 1024 * 1024;
    unsigned localCacheWays = 8;
    Cycles localCacheRoundTrip = 8;
    /** Majority-vote promotion threshold (global counter target). */
    unsigned migrationThreshold = 8;
    /** Width of the per-page global counter (6 bits, §4.2). */
    unsigned globalCounterBits = 6;
    /** Width of the per-page local counter (4 bits, §4.2). */
    unsigned localCounterBits = 4;
    /** Two-level radix local table: root access + leaf access on miss. */
    unsigned tableLevels = 2;
    /** Ideal-size baselines for the Fig. 16/17 sweeps. */
    bool infiniteLocalCache = false;
    bool infiniteGlobalCache = false;
};

/** Per-core TLB (see os/tlb.hh). Off by default: Table 2 does not
 *  specify TLB parameters and the calibrated migration costs already
 *  subsume shootdown overhead; enable to make refill costs emergent. */
struct TlbModelConfig
{
    bool enabled = false;
    unsigned entries = 1536;
    unsigned ways = 8;
    Cycles hitCycles = 1;
    Cycles walkCycles = 120;
};

/**
 * What the device does about dirty data lost with a crashed host (see
 * DESIGN.md §8). Device-resident data always survives a fail-stop; the
 * policy decides how the *stale* device copy of a lost-dirty line is
 * served afterwards.
 */
enum class CrashRecoveryPolicy : std::uint8_t
{
    /** Serve the stale device copy silently (count it as a dirty loss). */
    stale,
    /** Additionally mark lost-dirty lines persistently poisoned, so every
     *  later access takes the degraded uncacheable path and software can
     *  observe the loss. */
    poison
};

/**
 * Fault-injection parameters (see DESIGN.md §7 and §8). All faults are
 * drawn from a dedicated deterministic stream seeded by `seed`, so a
 * fault schedule replays bit-for-bit. A config with `enabled` set but
 * every rate at zero behaves identically to a disabled one (no RNG draws
 * are made), which the replay tests rely on.
 */
struct FaultConfig
{
    bool enabled = false;
    /** Seed of the fault stream (independent of the run seed). */
    std::uint64_t seed = 1;

    /** Per-message probability that a CXL flit fails CRC and is
     *  replayed (retry latency plus a second bandwidth charge). */
    double linkErrorRate = 0.0;

    /** Period of deterministic link-retraining windows; 0 disables.
     *  Each host's link retrains on its own phase within the period. */
    double retrainIntervalNs = 0.0;
    /** Length of each retraining window (link down, traffic stalls). */
    double retrainWindowNs = 2'000.0;

    /** Per-line probability that CXL DRAM holds a poisoned line. */
    double poisonRate = 0.0;
    /** Fraction of poisoned lines whose poison is persistent: the line
     *  becomes uncacheable and is served by a degraded retry path. */
    double persistentPoisonFrac = 0.25;

    /** Per-migration probability that a fault lands mid-migration and
     *  the partial migration must abort and roll back. */
    double migrationAbortRate = 0.0;

    /**
     * Mean interval between host fail-stop crashes; 0 disables crashes.
     * The schedule is pre-generated at construction from a *separate*
     * stream derived from `seed`, so enabling crashes does not perturb
     * the ordered link/migration fault draws (and a zero crash rate is
     * bit-identical to the pre-crash fault model).
     */
    double crashMeanIntervalNs = 0.0;
    /** Downtime before a crashed host rejoins (cold caches/TLB/remap
     *  tables under a fresh epoch); 0 means crashed hosts never rejoin. */
    double crashRejoinNs = 0.0;
    /** Upper bound on scheduled crash events per run. */
    unsigned crashMaxEvents = 64;
    /** How stale device copies of lost-dirty lines are served. */
    CrashRecoveryPolicy crashRecovery = CrashRecoveryPolicy::stale;

    /**
     * Lease duration for device-side failure detection (DESIGN.md §11);
     * 0 keeps the PR-2 *oracle* model where crashHost() reclaims
     * synchronously. When positive, each host renews its lease with a
     * heartbeat every heartbeatIntervalNs and the device only reclaims a
     * host's lines after the lease expires (the host becomes
     * *suspected*). A host suspected while actually alive (gray failure)
     * is fenced as a zombie and must readmit through the cold-rejoin
     * path.
     */
    double leaseNs = 0.0;
    /** Heartbeat renewal period; must be shorter than the lease. */
    double heartbeatIntervalNs = 5'000.0;
    /** Per-attempt coherence-transaction response timeout. */
    double txnTimeoutNs = 2'000.0;
    /** Retries after the first timed-out attempt before the requester
     *  gives up and suspects the target. */
    unsigned txnRetryLimit = 4;
    /** Base retry backoff; doubles per attempt up to txnBackoffMaxExp,
     *  plus deterministic per-transaction jitter. 0 disables backoff
     *  (retries depart immediately after each timeout). */
    double txnBackoffBaseNs = 500.0;
    /** Cap on the retry-backoff exponent. */
    unsigned txnBackoffMaxExp = 4;
    /** Delay between a fenced zombie observing the NACK on its stale
     *  request and completing cold readmission. */
    double readmitDelayNs = 10'000.0;

    /**
     * Mean interval between gray-failure *stall windows* (host alive but
     * unresponsive); 0 disables. Windows are pre-generated on a separate
     * RNG stream (like the crash schedule) so enabling them leaves the
     * crash/link/poison schedules bit-identical. Requires leaseNs > 0:
     * stalls are only meaningful under a failure detector.
     */
    double stallMeanIntervalNs = 0.0;
    /** Mean stall-window length; actual lengths are drawn uniformly in
     *  [0.5, 1.5] x this. Windows longer than the lease cause *false*
     *  suspicions (zombie fencing); shorter ones are ridden out by the
     *  transaction retry path. */
    double stallWindowNs = 30'000.0;
    /** Upper bound on generated stall windows per run. */
    unsigned stallMaxEvents = 64;

    /**
     * Mean interval between device *metadata* corruption events
     * (DESIGN.md §12); 0 disables the metadata fault domain entirely.
     * Each event flips bits in one directory entry or one PIPM remap
     * entry. Events are pre-generated on a separate "meta-ev" RNG
     * stream (like the crash and stall schedules), so enabling them
     * leaves the crash/link/poison/stall schedules bit-identical.
     */
    double metaCorruptMeanIntervalNs = 0.0;
    /** Upper bound on generated metadata corruption events per run. */
    unsigned metaCorruptMaxEvents = 256;
    /** Fraction of corruption events that also span the per-entry
     *  shadow checksum, making the entry unrepairable by scrubbing:
     *  directory entries fall back to the degraded uncacheable path,
     *  remap entries are replayed from the journal or force-reclaimed. */
    double metaShadowHitFrac = 0.25;
    /** Capacity (in pages) of the migration-metadata redo journal that
     *  backstops shadow-checksum hits on remap entries; 0 disables the
     *  journal (every shadow hit on a remap entry force-reclaims). */
    unsigned metaJournalPages = 16;
    /** Period of the device-side metadata scrubber; must be positive
     *  whenever corruption is enabled (corruption that is never
     *  scrubbed never heals). */
    double metaScrubIntervalNs = 25'000.0;
    /** Max quarantined entries one scrub pass repairs. */
    unsigned metaScrubBudget = 64;

    /** Repairs within one window that trip a page group's migration
     *  circuit breaker (graceful degradation, DESIGN.md §12.4). */
    unsigned metaBreakerThreshold = 2;
    /** Length of the breaker's strike-counting window. */
    double metaBreakerWindowNs = 50'000.0;
    /** Open-state cool-down before the breaker half-opens; doubles per
     *  consecutive trip up to metaBreakerMaxExp. */
    double metaBreakerCooldownNs = 100'000.0;
    /** Cap on the cool-down exponent. */
    unsigned metaBreakerMaxExp = 4;
    /** Pages per circuit-breaker group. */
    unsigned metaBreakerGroupPages = 8;

    /** Link messages per error-rate observation window. */
    std::uint64_t backoffWindow = 512;
    /** Observed error rate above which migrations back off. */
    double backoffThreshold = 0.02;
    /** Base backoff duration; doubles per consecutive bad window. */
    double backoffBaseNs = 100'000.0;
    /** Cap on the backoff exponent (max backoff = base * 2^maxExp). */
    unsigned backoffMaxExp = 6;

    /** Validate ranges; fatal()s on user error. */
    void validate() const;

    /**
     * Number of active failure domains: CXL link/media faults (§7),
     * host fail-stop crashes (§8), lease-based detection with gray
     * failures (§11), and device-metadata corruption (§12). A disabled
     * config has zero; the fuzzer's minimizer shrinks failing samples
     * toward zero (DESIGN.md §13).
     */
    unsigned activeDomains() const;
};

/** OS page-migration mechanism parameters (§5.1.4). */
struct OsMigrationConfig
{
    /** Epoch between policy invocations; paper default 10 ms. */
    double intervalMs = 10.0;
    /** Per-4KB-page cost on the initiating core; paper: 20 us. */
    double perPageInitiatorUs = 20.0;
    /** Per-4KB-page cost on every other core (TLB shootdown); 5 us. */
    double perPageOtherUs = 5.0;
    /** Max pages migrated per epoch per host (batched transfers). */
    unsigned maxPagesPerEpoch = 512;
    /** Promotion threshold (accesses per epoch) for hotness policies. */
    unsigned hotThreshold = 8;
};

/** Full system configuration. */
struct SystemConfig
{
    unsigned numHosts = 4;
    unsigned coresPerHost = 4;

    CoreConfig core;
    CacheConfig l1{32 * 1024, 8, 4};
    /** Shared LLC: 2 MB per core, 16-way, 24-cycle RT. */
    CacheConfig llcPerCore{2 * 1024 * 1024, 16, 24};

    DramConfig localDram;          ///< one DDR5-4800 channel per host
    DramConfig cxlDram{48, 15, 20, 15, 2, 32, 8192, 9.6, 10.0}; ///< 2 ch

    CxlLinkConfig link;
    DirectoryConfig deviceDirectory;
    LocalDirectoryConfig localDirectory;
    PipmConfig pipm;
    OsMigrationConfig osMigration;
    TlbModelConfig tlb;
    FaultConfig fault;

    /**
     * Track functional data values (the MemoryImage and the data tokens
     * in AccessResult). Values never influence timing, so a run turns
     * them on only when something can observe them: this flag, or
     * fault.enabled (lost-line accounting compares values). Gated
     * KeyGate::never: it changes no result.
     */
    bool trackValues = false;

    /** Capacities before footprint scaling (Table 2). */
    std::uint64_t localBytesPerHostFull = 32ull << 30;  ///< 32 GB
    std::uint64_t cxlPoolBytesFull = 128ull << 30;      ///< 128 GB

    /** Footprint divisor (capacities and workload footprints). */
    unsigned footprintScale = 256;
    /** Epoch/cost divisor for OS migration (see file comment). */
    unsigned timeScale = 250;
    /**
     * Cache-capacity divisor. Shrinking the heap 256x while keeping
     * Table 2's 8 MB/host LLC would let the LLC cover 17% of the heap
     * (the paper's ratio is 0.07%), suppressing the capacity evictions
     * that drive both writebacks and incremental migration. Scaling the
     * cache capacities (L1 by l1Scale, LLC by llcScale) restores the
     * working-set-greatly-exceeds-LLC regime. Latencies are unchanged.
     */
    unsigned l1Scale = 4;
    unsigned llcScale = 16;
    /** Divisor on per-page migration copy bytes (see
     *  osPageTransferBytes). */
    unsigned migrationBytesScale = 4;

    /** Effective (scaled) L1 capacity in bytes. */
    std::uint64_t
    l1Bytes() const
    {
        return l1.sizeBytes / l1Scale;
    }

    /** Effective (scaled) LLC capacity per core in bytes. */
    std::uint64_t
    llcBytesPerCore() const
    {
        return llcPerCore.sizeBytes / llcScale;
    }

    /** Scaled local DRAM capacity per host. */
    std::uint64_t
    localBytesPerHost() const
    {
        return localBytesPerHostFull / footprintScale;
    }

    /** Scaled CXL-DSM pool capacity. */
    std::uint64_t
    cxlPoolBytes() const
    {
        return cxlPoolBytesFull / footprintScale;
    }

    /**
     * OS migration epoch in core cycles after time scaling. Clamped to
     * >= 1: a large timeScale can round the scaled interval down to 0,
     * which would turn the policy timer into an every-cycle busy loop.
     */
    Cycles
    osEpochCycles() const
    {
        const Cycles c = nsToCycles(osMigration.intervalMs * 1e6) / timeScale;
        return c ? c : 1;
    }

    /** Scaled initiating-core cost of migrating one page, in cycles. */
    Cycles
    osPageInitiatorCycles() const
    {
        return nsToCycles(osMigration.perPageInitiatorUs * 1e3) / timeScale;
    }

    /** Scaled per-other-core shootdown cost of one page, in cycles. */
    Cycles
    osPageOtherCycles() const
    {
        return nsToCycles(osMigration.perPageOtherUs * 1e3) / timeScale;
    }

    /**
     * Scaled bytes charged to the CXL link per migrated 4 KB page. The
     * transfer competes with demand traffic for bandwidth. Because the
     * simulated runs compress execution time (timeScale) while migrating
     * footprint-proportional page counts, charging the full 4 KB would
     * overstate — and charging 4 KB/timeScale would erase — the bandwidth
     * fraction migration consumes; migrationBytesScale is calibrated so
     * that fraction lands in the regime Fig. 4 reports.
     */
    std::uint64_t
    osPageTransferBytes() const
    {
        const std::uint64_t bytes = pageBytes / migrationBytesScale;
        return bytes ? bytes : 1;
    }

    // ---- Unified physical address map -------------------------------
    // [host0 local][host1 local]...[hostN-1 local][CXL pool]

    /** Base of host h's local DRAM in the unified space. */
    PhysAddr
    localBase(HostId h) const
    {
        return static_cast<PhysAddr>(h) * localBytesPerHost();
    }

    /** Base of the CXL-DSM pool in the unified space. */
    PhysAddr
    cxlBase() const
    {
        return static_cast<PhysAddr>(numHosts) * localBytesPerHost();
    }

    /** One-past-the-end of the unified space. */
    PhysAddr
    addressSpaceEnd() const
    {
        return cxlBase() + cxlPoolBytes();
    }

    /** Range-check a unified PA (the check real CXL hosts do, §4.3.3). */
    AddrRegion
    regionOf(PhysAddr pa) const
    {
        return pa >= cxlBase() ? AddrRegion::cxlPool : AddrRegion::hostLocal;
    }

    /** For a hostLocal PA, which host's DRAM holds it. */
    HostId
    homeHostOf(PhysAddr pa) const
    {
        return static_cast<HostId>(pa / localBytesPerHost());
    }

    /** Validate internal consistency; fatal()s on user error. */
    void validate() const;

    /** Render the configuration as Table 2-style rows. */
    std::string describe() const;

    /**
     * Canonical one-line key: `path=value,` for every row of the field
     * table (forEachField) whose KeyGate is on, doubles written so they
     * round-trip. Two configs with equal keys produce bit-identical runs;
     * the bench cache and the stats.json exporter both key on (hashes
     * of) this string, so any change to the table changes every key and
     * the committed bench cache must be regenerated.
     */
    std::string measurementKey() const;
};

/**
 * The switch under which a SystemConfig field can change a result, and
 * so takes part in measurementKey(). A field whose domain is off is
 * inert: a disabled fault, crash, lease or metadata domain adds nothing
 * to the key, so tweaking its knobs cannot split cache rows.
 */
enum class KeyGate : std::uint8_t
{
    always,
    faults,   ///< fault.enabled
    crash,    ///< fault.enabled && fault.crashMeanIntervalNs > 0
    lease,    ///< fault.enabled && fault.leaseNs > 0
    meta,     ///< fault.enabled && fault.metaCorruptMeanIntervalNs > 0
    never     ///< changes no result (trackValues)
};

/**
 * The one list of SystemConfig fields: calls f(path, field, gate) for
 * each, where `field` is a reference into `cfg` (mutable when `cfg` is).
 * measurementKey() and the fuzz minimizer's signature and C++ rendering
 * all walk it, so adding a SystemConfig field means adding a row here.
 */
template <typename Config, typename F>
void
forEachField(Config &cfg, F &&f)
{
    static_assert(std::is_same_v<std::remove_const_t<Config>, SystemConfig>);
#define PIPM_FIELD(path, gate) f(#path, cfg.path, KeyGate::gate)
    PIPM_FIELD(numHosts, always);
    PIPM_FIELD(coresPerHost, always);
    PIPM_FIELD(core.width, always);
    PIPM_FIELD(core.robEntries, always);
    PIPM_FIELD(core.loadQueue, always);
    PIPM_FIELD(core.storeQueue, always);
    PIPM_FIELD(core.mshrs, always);
    PIPM_FIELD(core.mshrLatencyThreshold, always);
    PIPM_FIELD(l1.sizeBytes, always);
    PIPM_FIELD(l1.ways, always);
    PIPM_FIELD(l1.roundTrip, always);
    PIPM_FIELD(llcPerCore.sizeBytes, always);
    PIPM_FIELD(llcPerCore.ways, always);
    PIPM_FIELD(llcPerCore.roundTrip, always);
    PIPM_FIELD(localDram.tRCns, always);
    PIPM_FIELD(localDram.tRCDns, always);
    PIPM_FIELD(localDram.tCLns, always);
    PIPM_FIELD(localDram.tRPns, always);
    PIPM_FIELD(localDram.channels, always);
    PIPM_FIELD(localDram.banksPerChannel, always);
    PIPM_FIELD(localDram.rowBytes, always);
    PIPM_FIELD(localDram.bytesPerCycle, always);
    PIPM_FIELD(localDram.controllerNs, always);
    PIPM_FIELD(cxlDram.tRCns, always);
    PIPM_FIELD(cxlDram.tRCDns, always);
    PIPM_FIELD(cxlDram.tCLns, always);
    PIPM_FIELD(cxlDram.tRPns, always);
    PIPM_FIELD(cxlDram.channels, always);
    PIPM_FIELD(cxlDram.banksPerChannel, always);
    PIPM_FIELD(cxlDram.rowBytes, always);
    PIPM_FIELD(cxlDram.bytesPerCycle, always);
    PIPM_FIELD(cxlDram.controllerNs, always);
    PIPM_FIELD(link.latencyNs, always);
    PIPM_FIELD(link.bytesPerNs, always);
    PIPM_FIELD(link.hasSwitch, always);
    PIPM_FIELD(link.switchNs, always);
    PIPM_FIELD(link.switchBytesPerNs, always);
    PIPM_FIELD(deviceDirectory.sets, always);
    PIPM_FIELD(deviceDirectory.ways, always);
    PIPM_FIELD(deviceDirectory.slices, always);
    PIPM_FIELD(deviceDirectory.roundTrip, always);
    PIPM_FIELD(localDirectory.sets, always);
    PIPM_FIELD(localDirectory.ways, always);
    PIPM_FIELD(localDirectory.roundTrip, always);
    PIPM_FIELD(pipm.globalCacheBytes, always);
    PIPM_FIELD(pipm.globalCacheWays, always);
    PIPM_FIELD(pipm.globalCacheRoundTrip, always);
    PIPM_FIELD(pipm.localCacheBytes, always);
    PIPM_FIELD(pipm.localCacheWays, always);
    PIPM_FIELD(pipm.localCacheRoundTrip, always);
    PIPM_FIELD(pipm.migrationThreshold, always);
    PIPM_FIELD(pipm.globalCounterBits, always);
    PIPM_FIELD(pipm.localCounterBits, always);
    PIPM_FIELD(pipm.tableLevels, always);
    PIPM_FIELD(pipm.infiniteLocalCache, always);
    PIPM_FIELD(pipm.infiniteGlobalCache, always);
    PIPM_FIELD(osMigration.intervalMs, always);
    PIPM_FIELD(osMigration.perPageInitiatorUs, always);
    PIPM_FIELD(osMigration.perPageOtherUs, always);
    PIPM_FIELD(osMigration.maxPagesPerEpoch, always);
    PIPM_FIELD(osMigration.hotThreshold, always);
    PIPM_FIELD(tlb.enabled, always);
    PIPM_FIELD(tlb.entries, always);
    PIPM_FIELD(tlb.ways, always);
    PIPM_FIELD(tlb.hitCycles, always);
    PIPM_FIELD(tlb.walkCycles, always);
    PIPM_FIELD(fault.enabled, faults);
    PIPM_FIELD(fault.seed, faults);
    PIPM_FIELD(fault.linkErrorRate, faults);
    PIPM_FIELD(fault.retrainIntervalNs, faults);
    PIPM_FIELD(fault.retrainWindowNs, faults);
    PIPM_FIELD(fault.poisonRate, faults);
    PIPM_FIELD(fault.persistentPoisonFrac, faults);
    PIPM_FIELD(fault.migrationAbortRate, faults);
    PIPM_FIELD(fault.crashMeanIntervalNs, crash);
    PIPM_FIELD(fault.crashRejoinNs, crash);
    PIPM_FIELD(fault.crashMaxEvents, crash);
    PIPM_FIELD(fault.crashRecovery, crash);
    PIPM_FIELD(fault.leaseNs, lease);
    PIPM_FIELD(fault.heartbeatIntervalNs, lease);
    PIPM_FIELD(fault.txnTimeoutNs, lease);
    PIPM_FIELD(fault.txnRetryLimit, lease);
    PIPM_FIELD(fault.txnBackoffBaseNs, lease);
    PIPM_FIELD(fault.txnBackoffMaxExp, lease);
    PIPM_FIELD(fault.readmitDelayNs, lease);
    PIPM_FIELD(fault.stallMeanIntervalNs, lease);
    PIPM_FIELD(fault.stallWindowNs, lease);
    PIPM_FIELD(fault.stallMaxEvents, lease);
    PIPM_FIELD(fault.metaCorruptMeanIntervalNs, meta);
    PIPM_FIELD(fault.metaCorruptMaxEvents, meta);
    PIPM_FIELD(fault.metaShadowHitFrac, meta);
    PIPM_FIELD(fault.metaJournalPages, meta);
    PIPM_FIELD(fault.metaScrubIntervalNs, meta);
    PIPM_FIELD(fault.metaScrubBudget, meta);
    PIPM_FIELD(fault.metaBreakerThreshold, meta);
    PIPM_FIELD(fault.metaBreakerWindowNs, meta);
    PIPM_FIELD(fault.metaBreakerCooldownNs, meta);
    PIPM_FIELD(fault.metaBreakerMaxExp, meta);
    PIPM_FIELD(fault.metaBreakerGroupPages, meta);
    PIPM_FIELD(fault.backoffWindow, faults);
    PIPM_FIELD(fault.backoffThreshold, faults);
    PIPM_FIELD(fault.backoffBaseNs, faults);
    PIPM_FIELD(fault.backoffMaxExp, faults);
    PIPM_FIELD(trackValues, never);
    PIPM_FIELD(localBytesPerHostFull, always);
    PIPM_FIELD(cxlPoolBytesFull, always);
    PIPM_FIELD(footprintScale, always);
    PIPM_FIELD(timeScale, always);
    PIPM_FIELD(l1Scale, always);
    PIPM_FIELD(llcScale, always);
    PIPM_FIELD(migrationBytesScale, always);
#undef PIPM_FIELD
}

/** The Table 2 default configuration. */
SystemConfig defaultConfig();

/** A tiny configuration for unit tests (2 hosts, small memories). */
SystemConfig testConfig();

/**
 * The paper-default fault schedule: a mildly lossy fabric (CRC errors on
 * ~1 in 2000 flits), periodic per-host link retraining, rare poisoned
 * lines (a quarter persistent) and occasional mid-migration faults.
 */
FaultConfig paperFaultConfig(std::uint64_t seed = 1);

/**
 * The paper-default fault schedule plus host fail-stop crashes: every
 * `mean_interval_ns` (on average) one host crashes and — after
 * `rejoin_ns` of downtime — rejoins cold under a fresh epoch. Used by
 * the crash-schedule verifier and the PIPM_BENCH_FAULTS=crash bench
 * mode.
 */
FaultConfig paperCrashFaultConfig(std::uint64_t seed = 1,
                                  double mean_interval_ns = 150'000.0,
                                  double rejoin_ns = 100'000.0);

/**
 * The crash schedule under *detected* (non-oracle) failures: leases with
 * heartbeat renewal, coherence-transaction timeout/retry/backoff, and
 * gray-failure stall windows whose mean length straddles the lease so
 * both ridden-out stalls and false suspicions (zombie fencing) occur.
 * Used by the suspicion-schedule verifier and the
 * PIPM_BENCH_FAULTS=suspect bench mode.
 */
FaultConfig paperSuspicionFaultConfig(std::uint64_t seed = 1,
                                      double lease_ns = 20'000.0,
                                      double stall_mean_interval_ns =
                                          120'000.0);

/**
 * Layer the paper-default device-metadata fault domain (DESIGN.md §12)
 * onto an existing fault schedule: periodic directory/remap corruption
 * with scrub-and-repair, a redo journal for migration metadata, and the
 * per-page-group migration circuit breaker. Exists as a separate helper
 * so the verifiers can combine metadata faults with the crash and
 * suspicion schedules.
 */
void addPaperMetaFaults(FaultConfig &fault,
                        double mean_interval_ns = 4'000.0);

/**
 * The paper-default fault schedule plus device-metadata corruption.
 * Used by the metadata-schedule verifier and the PIPM_BENCH_FAULTS=meta
 * bench mode.
 */
FaultConfig paperMetaFaultConfig(std::uint64_t seed = 1,
                                 double mean_interval_ns = 4'000.0);

} // namespace pipm

#endif // PIPM_COMMON_CONFIG_HH
