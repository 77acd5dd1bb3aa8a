/**
 * @file
 * Fuzz-case sampling and repair (DESIGN.md §13).
 *
 * The sampler draws every knob from a wide range — wider than
 * SystemConfig::validate() accepts — and repairCase() then clamps the
 * result into validity. Sampling wide and repairing (rather than
 * sampling narrow) keeps the boundary values validate() guards
 * reachable: a knob drawn just past its limit lands *on* the limit
 * after repair, so off-by-one bugs at the edges of the accepted ranges
 * stay in the tested population.
 *
 * Geometry note: SystemConfig::validate() rejects non-power-of-two set
 * counts outright (the same rule the SetAssoc constructors enforce), so
 * the sampler draws power-of-two sizes/ways/scales and repairCase()
 * rounds externally-supplied values down to powers of two to keep
 * repaired cases valid.
 *
 * Workloads: besides the Table 1 synthetics (with sampled multi-line
 * overrides — hotLinesPerPage / seqRunLines), the sampler emits
 * trace-backed workloads ("trace:<path>", replayed via
 * TraceFileWorkload) drawn from the .pipmt files of the directory named
 * by PIPM_FUZZ_TRACE_DIR, when set.
 */

#include "fuzz/fuzz.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "os/address_space.hh"
#include "workloads/catalog.hh"
#include "workloads/synthetic.hh"
#include "workloads/trace_file.hh"

namespace pipm
{
namespace fuzz
{

namespace
{

/** Largest power of two <= v (1 for v == 0). */
std::uint64_t
floorPow2(std::uint64_t v)
{
    if (v == 0)
        return 1;
    std::uint64_t p = 1;
    while (p * 2 != 0 && p * 2 <= v)
        p *= 2;
    return p;
}

/** Power of two drawn log-uniformly from [2^lo, 2^hi]. */
std::uint64_t
pow2In(Rng &rng, unsigned lo, unsigned hi)
{
    return std::uint64_t{1} << rng.range(lo, hi);
}

/** Uniform double in [lo, hi). */
double
realIn(Rng &rng, double lo, double hi)
{
    return lo + rng.real() * (hi - lo);
}

/** The Table 1 pattern for a workload name (null when unknown). */
const PatternParams *
patternFor(const std::string &name)
{
    for (const PatternParams &p : table1Patterns()) {
        if (name == p.name)
            return &p;
    }
    return nullptr;
}

/** The path behind a "trace:<path>" workload name ("" otherwise). */
std::string
tracePathOf(const std::string &workload)
{
    constexpr const char prefix[] = "trace:";
    if (workload.rfind(prefix, 0) != 0)
        return "";
    return workload.substr(sizeof prefix - 1);
}

void repairFaults(SystemConfig &cfg);

} // namespace

const std::vector<std::string> &
fuzzTraceFiles()
{
    static const std::vector<std::string> files = [] {
        std::vector<std::string> found;
        const std::string dir = envStr("PIPM_FUZZ_TRACE_DIR", "");
        if (dir.empty())
            return found;
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".pipmt")
                found.push_back(entry.path().string());
        }
        if (ec)
            warn("PIPM_FUZZ_TRACE_DIR=", dir, ": ", ec.message());
        // Directory iteration order is filesystem-dependent; sampling
        // must not be.
        std::sort(found.begin(), found.end());
        return found;
    }();
    return files;
}

std::unique_ptr<Workload>
caseWorkload(const FuzzCase &c)
{
    const std::string path = tracePathOf(c.workload);
    if (!path.empty())
        return std::make_unique<TraceFileWorkload>(path);
    auto wl = workloadByName(c.workload, c.cfg.footprintScale);
    if (c.hotLinesPerPage == 0 && c.seqRunLines == 0)
        return wl;
    // Multi-line model overrides: rebuild the synthetic with the
    // pattern's line-granularity knobs replaced.
    const auto *syn = dynamic_cast<const SyntheticWorkload *>(wl.get());
    panic_if(!syn, "multi-line overrides on a non-synthetic workload");
    PatternParams p = syn->params();
    if (c.hotLinesPerPage != 0)
        p.hotLinesPerPage = c.hotLinesPerPage;
    if (c.seqRunLines != 0)
        p.seqRunLines = c.seqRunLines;
    return std::make_unique<SyntheticWorkload>(p, c.cfg.footprintScale);
}

FuzzCase
defaultCase()
{
    FuzzCase c;
    c.cfg = testConfig();
    return c;
}

FuzzCase
sampleCase(std::uint64_t seed, const FuzzLimits &lim)
{
    Rng rng(seed);
    FuzzCase c = defaultCase();
    SystemConfig &cfg = c.cfg;

    // ---- Topology ---------------------------------------------------
    cfg.numHosts = static_cast<unsigned>(
        rng.range(1, std::max(1u, lim.maxHosts)));
    cfg.coresPerHost = static_cast<unsigned>(
        floorPow2(rng.range(1, std::max(1u, lim.maxCoresPerHost))));

    // ---- Core -------------------------------------------------------
    cfg.core.width = static_cast<unsigned>(rng.range(1, 8));
    cfg.core.robEntries = static_cast<unsigned>(rng.range(32, 512));
    cfg.core.loadQueue = static_cast<unsigned>(rng.range(16, 128));
    cfg.core.storeQueue = static_cast<unsigned>(rng.range(16, 128));
    cfg.core.mshrs = static_cast<unsigned>(rng.range(1, 32));
    cfg.core.mshrLatencyThreshold = rng.range(10, 100);

    // ---- Caches (power-of-two geometry; see file comment) -----------
    cfg.l1.sizeBytes = pow2In(rng, 12, 16);             // 4 KB .. 64 KB
    cfg.l1.ways = static_cast<unsigned>(pow2In(rng, 1, 3));
    cfg.l1.roundTrip = rng.range(2, 6);
    cfg.llcPerCore.sizeBytes = pow2In(rng, 14, 18);     // 16 KB .. 256 KB
    cfg.llcPerCore.ways = static_cast<unsigned>(pow2In(rng, 2, 4));
    cfg.llcPerCore.roundTrip = rng.range(12, 40);
    cfg.l1Scale = static_cast<unsigned>(pow2In(rng, 0, 1));
    cfg.llcScale = static_cast<unsigned>(pow2In(rng, 0, 2));

    // ---- DRAM -------------------------------------------------------
    for (DramConfig *d : {&cfg.localDram, &cfg.cxlDram}) {
        d->tRCns = realIn(rng, 30.0, 60.0);
        d->tRCDns = realIn(rng, 10.0, 20.0);
        d->tCLns = realIn(rng, 15.0, 25.0);
        d->tRPns = realIn(rng, 10.0, 20.0);
        d->channels = static_cast<unsigned>(rng.range(1, 4));
        d->banksPerChannel = static_cast<unsigned>(pow2In(rng, 4, 5));
        d->rowBytes = static_cast<unsigned>(pow2In(rng, 12, 13));
        d->bytesPerCycle = realIn(rng, 4.0, 16.0);
        d->controllerNs = realIn(rng, 5.0, 15.0);
    }

    // ---- CXL link ---------------------------------------------------
    cfg.link.latencyNs = realIn(rng, 10.0, 200.0);
    cfg.link.bytesPerNs = realIn(rng, 1.0, 32.0);
    cfg.link.hasSwitch = rng.chance(0.25);
    cfg.link.switchNs = realIn(rng, 5.0, 50.0);
    cfg.link.switchBytesPerNs = realIn(rng, 4.0, 64.0);

    // ---- Directories ------------------------------------------------
    cfg.deviceDirectory.sets = static_cast<unsigned>(pow2In(rng, 6, 10));
    cfg.deviceDirectory.ways = static_cast<unsigned>(pow2In(rng, 2, 4));
    cfg.deviceDirectory.slices = static_cast<unsigned>(pow2In(rng, 0, 4));
    cfg.deviceDirectory.roundTrip = rng.range(16, 128);
    cfg.localDirectory.sets = static_cast<unsigned>(pow2In(rng, 6, 12));
    cfg.localDirectory.ways = static_cast<unsigned>(pow2In(rng, 3, 4));
    cfg.localDirectory.roundTrip = rng.range(4, 16);

    // ---- PIPM -------------------------------------------------------
    cfg.pipm.globalCacheBytes = pow2In(rng, 11, 15);
    cfg.pipm.globalCacheWays = static_cast<unsigned>(pow2In(rng, 2, 3));
    cfg.pipm.globalCacheRoundTrip = rng.range(2, 8);
    cfg.pipm.localCacheBytes = pow2In(rng, 14, 17);
    cfg.pipm.localCacheWays = static_cast<unsigned>(pow2In(rng, 2, 3));
    cfg.pipm.localCacheRoundTrip = rng.range(4, 16);
    cfg.pipm.globalCounterBits = static_cast<unsigned>(rng.range(2, 8));
    cfg.pipm.localCounterBits = static_cast<unsigned>(rng.range(1, 8));
    // Deliberately sampled one past the top: repair clamps to the
    // 2^bits - 1 boundary, keeping the boundary in the population.
    cfg.pipm.migrationThreshold = static_cast<unsigned>(
        rng.range(1, (1u << cfg.pipm.globalCounterBits)));
    cfg.pipm.tableLevels = static_cast<unsigned>(rng.range(1, 2));
    cfg.pipm.infiniteLocalCache = rng.chance(0.1);
    cfg.pipm.infiniteGlobalCache = rng.chance(0.1);

    // ---- TLB --------------------------------------------------------
    cfg.tlb.enabled = rng.chance(0.25);
    cfg.tlb.entries = static_cast<unsigned>(pow2In(rng, 8, 11));
    cfg.tlb.ways = static_cast<unsigned>(pow2In(rng, 2, 3));
    cfg.tlb.hitCycles = rng.range(1, 2);
    cfg.tlb.walkCycles = rng.range(50, 200);

    // ---- OS migration -----------------------------------------------
    cfg.osMigration.intervalMs = realIn(rng, 0.5, 20.0);
    cfg.osMigration.perPageInitiatorUs = realIn(rng, 5.0, 40.0);
    cfg.osMigration.perPageOtherUs = realIn(rng, 1.0, 10.0);
    cfg.osMigration.maxPagesPerEpoch =
        static_cast<unsigned>(rng.range(16, 1024));
    cfg.osMigration.hotThreshold = static_cast<unsigned>(rng.range(1, 64));

    // ---- Capacities and scale knobs ---------------------------------
    cfg.localBytesPerHostFull = pow2In(rng, 30, 35);    // 1 GB .. 32 GB
    cfg.cxlPoolBytesFull = pow2In(rng, 33, 37);         // 8 GB .. 128 GB
    cfg.footprintScale = static_cast<unsigned>(pow2In(rng, 6, 10));
    cfg.timeScale = static_cast<unsigned>(rng.range(100, 2000));
    cfg.migrationBytesScale = static_cast<unsigned>(pow2In(rng, 0, 3));

    // ---- Faults: each domain is an independent coin so single-domain
    // and multi-domain compositions both appear often -----------------
    FaultConfig &f = cfg.fault;
    f.enabled = rng.chance(0.75);
    f.seed = rng.next() | 1;
    if (rng.chance(0.5)) {                      // §7 link/media domain
        f.linkErrorRate = rng.chance(0.7) ? realIn(rng, 0.0, 5e-3) : 0.0;
        if (rng.chance(0.4)) {
            f.retrainIntervalNs = realIn(rng, 50'000.0, 500'000.0);
            f.retrainWindowNs = realIn(rng, 500.0, 5'000.0);
        } else {
            f.retrainIntervalNs = 0.0;
        }
        f.poisonRate = rng.chance(0.6) ? realIn(rng, 0.0, 1e-3) : 0.0;
        f.persistentPoisonFrac = rng.real();
        f.migrationAbortRate = rng.chance(0.6) ? realIn(rng, 0.0, 0.05)
                                               : 0.0;
    } else {
        f.linkErrorRate = 0.0;
        f.retrainIntervalNs = 0.0;
        f.poisonRate = 0.0;
        f.migrationAbortRate = 0.0;
    }
    f.backoffWindow = rng.range(64, 1024);
    f.backoffThreshold = realIn(rng, 0.0, 0.1);
    f.backoffBaseNs = realIn(rng, 10'000.0, 500'000.0);
    f.backoffMaxExp = static_cast<unsigned>(rng.range(0, 8));
    if (rng.chance(0.5)) {                      // §8 fail-stop domain
        f.crashMeanIntervalNs = realIn(rng, 30'000.0, 300'000.0);
        f.crashRejoinNs = rng.chance(0.6) ? realIn(rng, 20'000.0, 200'000.0)
                                          : 0.0;
        f.crashMaxEvents = static_cast<unsigned>(rng.range(1, 64));
        f.crashRecovery = rng.chance(0.5) ? CrashRecoveryPolicy::stale
                                          : CrashRecoveryPolicy::poison;
    } else {
        f.crashMeanIntervalNs = 0.0;
    }
    if (rng.chance(0.5)) {                      // §11 detection domain
        f.leaseNs = realIn(rng, 10'000.0, 60'000.0);
        f.heartbeatIntervalNs = f.leaseNs * realIn(rng, 0.1, 0.8);
        f.txnTimeoutNs = realIn(rng, 500.0, 5'000.0);
        f.txnRetryLimit = static_cast<unsigned>(rng.range(0, 8));
        f.txnBackoffBaseNs =
            f.txnRetryLimit && rng.chance(0.7) ? realIn(rng, 100.0, 2'000.0)
                                               : 0.0;
        f.txnBackoffMaxExp = static_cast<unsigned>(rng.range(0, 8));
        f.readmitDelayNs = realIn(rng, 0.0, 50'000.0);
        if (rng.chance(0.5)) {                  // gray-failure stalls
            f.stallMeanIntervalNs = realIn(rng, 60'000.0, 400'000.0);
            // Straddle the lease so both ridden-out stalls and false
            // suspicions occur (the §11 verifier's regime).
            f.stallWindowNs = f.leaseNs * realIn(rng, 0.5, 2.0);
            f.stallMaxEvents = static_cast<unsigned>(rng.range(1, 64));
        } else {
            f.stallMeanIntervalNs = 0.0;
        }
    } else {
        f.leaseNs = 0.0;
        f.stallMeanIntervalNs = 0.0;
    }
    if (rng.chance(0.5)) {                      // §12 metadata domain
        f.metaCorruptMeanIntervalNs = realIn(rng, 2'000.0, 50'000.0);
        f.metaCorruptMaxEvents = static_cast<unsigned>(rng.range(1, 256));
        f.metaShadowHitFrac = rng.real();
        f.metaJournalPages = static_cast<unsigned>(rng.range(0, 64));
        f.metaScrubIntervalNs = realIn(rng, 5'000.0, 100'000.0);
        f.metaScrubBudget = static_cast<unsigned>(rng.range(1, 64));
        f.metaBreakerThreshold = static_cast<unsigned>(rng.range(1, 8));
        f.metaBreakerWindowNs = realIn(rng, 10'000.0, 200'000.0);
        f.metaBreakerCooldownNs = realIn(rng, 20'000.0, 400'000.0);
        f.metaBreakerMaxExp = static_cast<unsigned>(rng.range(0, 8));
        f.metaBreakerGroupPages = static_cast<unsigned>(rng.range(1, 16));
    } else {
        f.metaCorruptMeanIntervalNs = 0.0;
    }

    // ---- Scheme, workload, run lengths ------------------------------
    c.scheme = allSchemesExtended[rng.below(allSchemesExtended.size())];
    const auto &patterns = table1Patterns();
    c.workload = patterns[rng.below(patterns.size())].name;
    // Multi-line access models: override the pattern's line-granularity
    // knobs often enough that line-level hotness and long spatial runs
    // are both well represented in the population.
    c.hotLinesPerPage = rng.chance(0.35)
        ? static_cast<unsigned>(rng.range(1, linesPerPage / 4))
        : 0;
    c.seqRunLines = rng.chance(0.35)
        ? static_cast<unsigned>(rng.range(1, 2 * linesPerPage))
        : 0;
    // Trace-backed workloads, when a trace corpus is available.
    const auto &traces = fuzzTraceFiles();
    if (!traces.empty() && rng.chance(0.25)) {
        c.workload = "trace:" + traces[rng.below(traces.size())];
        c.hotLinesPerPage = 0;
        c.seqRunLines = 0;
    }
    c.runSeed = rng.next() | 1;
    c.warmupRefs = rng.range(0, lim.maxWarmup);
    c.measureRefs = rng.range(lim.minRefs, lim.maxRefs);

    repairCase(c);
    return c;
}

void
repairCase(FuzzCase &c)
{
    SystemConfig &cfg = c.cfg;

    cfg.numHosts = std::clamp(cfg.numHosts, 1u, 32u);
    cfg.coresPerHost = static_cast<unsigned>(
        floorPow2(std::clamp(cfg.coresPerHost, 1u, 32u)));
    cfg.footprintScale = static_cast<unsigned>(
        floorPow2(std::max(cfg.footprintScale, 1u)));
    cfg.timeScale = std::max(cfg.timeScale, 1u);
    cfg.migrationBytesScale = std::max(cfg.migrationBytesScale, 1u);
    cfg.l1Scale = static_cast<unsigned>(floorPow2(cfg.l1Scale));
    cfg.llcScale = static_cast<unsigned>(floorPow2(cfg.llcScale));

    cfg.core.width = std::max(cfg.core.width, 1u);
    cfg.core.robEntries = std::max(cfg.core.robEntries, 1u);
    cfg.core.loadQueue = std::max(cfg.core.loadQueue, 1u);
    cfg.core.storeQueue = std::max(cfg.core.storeQueue, 1u);
    cfg.core.mshrs = std::max(cfg.core.mshrs, 1u);

    // Power-of-two cache geometry with at least one set after scaling.
    for (auto [cache, scale] :
         {std::pair{&cfg.l1, cfg.l1Scale},
          std::pair{&cfg.llcPerCore, cfg.llcScale}}) {
        cache->ways = static_cast<unsigned>(
            floorPow2(std::max(cache->ways, 1u)));
        const std::uint64_t floor =
            std::uint64_t{lineBytes} * cache->ways * scale;
        cache->sizeBytes = std::max(floorPow2(cache->sizeBytes), floor);
    }

    cfg.deviceDirectory.sets = static_cast<unsigned>(
        floorPow2(std::max(cfg.deviceDirectory.sets, 1u)));
    cfg.deviceDirectory.slices = static_cast<unsigned>(
        floorPow2(std::max(cfg.deviceDirectory.slices, 1u)));
    cfg.deviceDirectory.ways = std::max(cfg.deviceDirectory.ways, 1u);
    cfg.localDirectory.sets = std::max(cfg.localDirectory.sets, 1u);
    cfg.localDirectory.ways = std::max(cfg.localDirectory.ways, 1u);

    cfg.pipm.globalCacheWays = std::max(cfg.pipm.globalCacheWays, 1u);
    cfg.pipm.localCacheWays = std::max(cfg.pipm.localCacheWays, 1u);
    cfg.pipm.globalCounterBits = std::clamp(cfg.pipm.globalCounterBits,
                                            1u, 8u);
    cfg.pipm.localCounterBits = std::clamp(cfg.pipm.localCounterBits,
                                           1u, 8u);
    cfg.pipm.migrationThreshold =
        std::clamp(cfg.pipm.migrationThreshold, 1u,
                   (1u << cfg.pipm.globalCounterBits) - 1);
    cfg.pipm.tableLevels = std::max(cfg.pipm.tableLevels, 1u);

    cfg.tlb.entries = std::max(cfg.tlb.entries, cfg.tlb.ways);
    cfg.tlb.ways = std::max(cfg.tlb.ways, 1u);

    cfg.osMigration.intervalMs = std::max(cfg.osMigration.intervalMs, 0.1);
    cfg.osMigration.perPageInitiatorUs =
        std::max(cfg.osMigration.perPageInitiatorUs, 0.0);
    cfg.osMigration.perPageOtherUs =
        std::max(cfg.osMigration.perPageOtherUs, 0.0);
    cfg.osMigration.maxPagesPerEpoch =
        std::max(cfg.osMigration.maxPagesPerEpoch, 1u);
    cfg.osMigration.hotThreshold = std::max(cfg.osMigration.hotThreshold,
                                            1u);

    cfg.link.latencyNs = std::max(cfg.link.latencyNs, 0.0);
    cfg.link.bytesPerNs = std::max(cfg.link.bytesPerNs, 0.5);
    cfg.link.switchNs = std::max(cfg.link.switchNs, 0.0);
    cfg.link.switchBytesPerNs = std::max(cfg.link.switchBytesPerNs, 0.5);
    for (DramConfig *d : {&cfg.localDram, &cfg.cxlDram}) {
        d->bytesPerCycle = std::max(d->bytesPerCycle, 0.5);
        d->channels = std::max(d->channels, 1u);
        d->banksPerChannel = std::max(d->banksPerChannel, 1u);
        d->rowBytes = std::max(d->rowBytes, unsigned{lineBytes});
    }

    // ---- Workload fit (mirrors AddressSpace/SyntheticWorkload) ------
    c.hotLinesPerPage = std::min(c.hotLinesPerPage, linesPerPage);
    c.seqRunLines = std::min(c.seqRunLines, 4 * linesPerPage);
    const std::string trace_path = tracePathOf(c.workload);
    if (!trace_path.empty()) {
        // Trace replay: multi-line overrides do not apply, and geometry
        // and footprints come from the file, not from a Table 1
        // pattern. An unreadable trace falls back to the baseline
        // synthetic so repair always yields a runnable case.
        c.hotLinesPerPage = 0;
        c.seqRunLines = 0;
        ThrowOnErrorScope guard;
        try {
            const TraceReader reader(trace_path);
            const TraceMeta &m = reader.meta();
            cfg.numHosts = std::clamp(cfg.numHosts, 1u, m.numHosts);
            cfg.coresPerHost = static_cast<unsigned>(floorPow2(
                std::clamp(cfg.coresPerHost, 1u, m.coresPerHost)));
            // Trace footprints are absolute (recorded post-scale), so
            // fit the *scaled* capacities directly instead of reasoning
            // about full sizes.
            while (cfg.cxlPoolBytes() <
                   std::max<std::uint64_t>(m.sharedBytes, pageBytes))
                cfg.cxlPoolBytesFull *= 2;
            while (cfg.localBytesPerHost() < pageBytes ||
                   m.privateBytesPerHost / pageBytes >=
                       cfg.localBytesPerHost() / pageBytes)
                cfg.localBytesPerHostFull *= 2;
            c.measureRefs = std::max<std::uint64_t>(c.measureRefs, 1);
            repairFaults(cfg);
            return;
        } catch (const SimError &) {
            c.workload = "ycsb";
        }
    }
    const PatternParams *pat = patternFor(c.workload);
    if (!pat) {
        c.workload = "ycsb";
        pat = patternFor(c.workload);
    }
    // Scaled shared heap must be at least a page...
    while (cfg.footprintScale > 1 &&
           pat->footprintFullBytes / cfg.footprintScale < pageBytes)
        cfg.footprintScale /= 2;
    // ...and must fit the CXL pool (floor division by the same scale
    // preserves <=, so comparing the full sizes suffices).
    while (cfg.cxlPoolBytesFull < pat->footprintFullBytes)
        cfg.cxlPoolBytesFull *= 2;
    while (cfg.cxlPoolBytes() < pageBytes)
        cfg.cxlPoolBytesFull *= 2;
    // Keep the *scaled* pool fuzz-sized: the invariant sweep and the
    // crash reclaim walk every pool line, so a multi-GB scaled pool
    // turns one oracle run into minutes. Raising footprintScale shrinks
    // the pool and the workload together, so the fit constraints above
    // are preserved as long as the shared heap stays >= one page.
    // 64 MB (testConfig's pool): crash reclaim at fuzz event rates can
    // walk the pool tens of times per run.
    constexpr std::uint64_t maxScaledPoolBytes = 64ull << 20;
    while (cfg.cxlPoolBytes() > maxScaledPoolBytes &&
           pat->footprintFullBytes / (cfg.footprintScale * 2) >= pageBytes)
        cfg.footprintScale *= 2;
    // Private data (floored at 16 pages per SyntheticWorkload) must fit
    // strictly inside each host's local DRAM.
    const std::uint64_t priv_bytes =
        std::max<std::uint64_t>(pat->privateFullBytes / cfg.footprintScale,
                                16 * pageBytes);
    while (cfg.localBytesPerHost() < pageBytes ||
           priv_bytes / pageBytes >= cfg.localBytesPerHost() / pageBytes)
        cfg.localBytesPerHostFull *= 2;

    repairFaults(cfg);

    c.measureRefs = std::max<std::uint64_t>(c.measureRefs, 1);
}

namespace
{

/** The FaultConfig half of repairCase() (shared with the trace path). */
void
repairFaults(SystemConfig &cfg)
{
    FaultConfig &f = cfg.fault;
    auto unit = [](double &p) { p = std::clamp(p, 0.0, 1.0); };
    auto nonneg = [](double &v) { v = std::max(v, 0.0); };
    unit(f.linkErrorRate);
    unit(f.poisonRate);
    unit(f.persistentPoisonFrac);
    unit(f.migrationAbortRate);
    unit(f.backoffThreshold);
    unit(f.metaShadowHitFrac);
    nonneg(f.retrainIntervalNs);
    nonneg(f.retrainWindowNs);
    nonneg(f.crashMeanIntervalNs);
    nonneg(f.crashRejoinNs);
    nonneg(f.leaseNs);
    nonneg(f.heartbeatIntervalNs);
    nonneg(f.txnTimeoutNs);
    nonneg(f.txnBackoffBaseNs);
    nonneg(f.readmitDelayNs);
    nonneg(f.stallMeanIntervalNs);
    nonneg(f.stallWindowNs);
    nonneg(f.metaCorruptMeanIntervalNs);
    nonneg(f.metaScrubIntervalNs);
    nonneg(f.metaBreakerWindowNs);
    nonneg(f.metaBreakerCooldownNs);
    nonneg(f.backoffBaseNs);
    if (f.retrainIntervalNs > 0.0 && f.retrainWindowNs >= f.retrainIntervalNs)
        f.retrainWindowNs = f.retrainIntervalNs / 4.0;
    if (f.crashMeanIntervalNs > 0.0 && f.crashMaxEvents == 0)
        f.crashMaxEvents = 1;
    f.crashMaxEvents = std::min(f.crashMaxEvents, 4096u);
    if (f.leaseNs > 0.0) {
        if (f.heartbeatIntervalNs <= 0.0 ||
            f.heartbeatIntervalNs >= f.leaseNs)
            f.heartbeatIntervalNs = f.leaseNs / 5.0;
        if (f.txnTimeoutNs <= 0.0)
            f.txnTimeoutNs = 1'000.0;
    }
    if (f.txnRetryLimit == 0)
        f.txnBackoffBaseNs = 0.0;
    f.txnBackoffMaxExp = std::min(f.txnBackoffMaxExp, 20u);
    if (f.stallMeanIntervalNs > 0.0) {
        if (f.leaseNs <= 0.0) {
            // Stalls are only observable through a failure detector;
            // dropping the domain is the minimal legal repair.
            f.stallMeanIntervalNs = 0.0;
        } else {
            if (f.stallWindowNs <= 0.0)
                f.stallWindowNs = f.leaseNs;
            if (f.stallMaxEvents == 0)
                f.stallMaxEvents = 1;
        }
    }
    f.stallMaxEvents = std::min(f.stallMaxEvents, 4096u);
    if (f.metaCorruptMeanIntervalNs > 0.0) {
        if (f.metaCorruptMaxEvents == 0)
            f.metaCorruptMaxEvents = 1;
        if (f.metaScrubIntervalNs <= 0.0)
            f.metaScrubIntervalNs = 25'000.0;
        if (f.metaScrubBudget == 0)
            f.metaScrubBudget = 1;
        if (f.metaBreakerThreshold == 0)
            f.metaBreakerThreshold = 1;
        if (f.metaBreakerWindowNs <= 0.0)
            f.metaBreakerWindowNs = 50'000.0;
        if (f.metaBreakerCooldownNs <= 0.0)
            f.metaBreakerCooldownNs = 100'000.0;
        if (f.metaBreakerGroupPages == 0)
            f.metaBreakerGroupPages = 1;
    }
    f.metaCorruptMaxEvents = std::min(f.metaCorruptMaxEvents, 4096u);
    f.metaJournalPages = std::min(f.metaJournalPages, 4096u);
    f.metaBreakerMaxExp = std::min(f.metaBreakerMaxExp, 20u);
    if (f.backoffWindow == 0)
        f.backoffWindow = 1;
    f.backoffMaxExp = std::min(f.backoffMaxExp, 20u);
}

} // namespace

bool
caseValid(const FuzzCase &c, std::string *why)
{
    ThrowOnErrorScope guard;
    try {
        c.cfg.validate();
        const auto wl = caseWorkload(c);
        if (const auto *tf = dynamic_cast<const TraceFileWorkload *>(wl.get()))
            fatal_if(c.cfg.numHosts > tf->recordedHosts() ||
                         c.cfg.coresPerHost > tf->recordedCoresPerHost(),
                     "trace was recorded for ", tf->recordedHosts(), "x",
                     tf->recordedCoresPerHost(), " cores; case asks for ",
                     c.cfg.numHosts, "x", c.cfg.coresPerHost);
        AddressSpace::checkFits(c.cfg, wl->sharedBytes(),
                                wl->privateBytesPerHost());
        fatal_if(c.measureRefs == 0, "measureRefs must be positive");
    } catch (const SimError &e) {
        if (why)
            *why = e.message;
        return false;
    }
    return true;
}

std::string
describeCase(const FuzzCase &c)
{
    std::ostringstream os;
    os << c.cfg.numHosts << "x" << c.cfg.coresPerHost << " " << c.workload
       << "/" << toString(c.scheme) << " refs=" << c.warmupRefs << "+"
       << c.measureRefs << " fs=" << c.cfg.footprintScale << " seed="
       << c.runSeed;
    const FaultConfig &f = c.cfg.fault;
    os << " faults=";
    if (!f.enabled) {
        os << "off";
    } else {
        os << f.activeDomains() << "[";
        const char *sep = "";
        if (f.linkErrorRate > 0.0 || f.retrainIntervalNs > 0.0 ||
            f.poisonRate > 0.0 || f.migrationAbortRate > 0.0) {
            os << "link";
            sep = ",";
        }
        if (f.crashMeanIntervalNs > 0.0) {
            os << sep << "crash";
            sep = ",";
        }
        if (f.leaseNs > 0.0 || f.stallMeanIntervalNs > 0.0) {
            os << sep << "lease";
            sep = ",";
        }
        if (f.metaCorruptMeanIntervalNs > 0.0)
            os << sep << "meta";
        os << "]";
    }
    return os.str();
}

} // namespace fuzz
} // namespace pipm
