#include "common/config.hh"

#include <charconv>
#include <sstream>

#include "common/logging.hh"

namespace pipm
{

namespace
{

/** Whether p is a probability. */
bool
inUnit(double p)
{
    return p >= 0.0 && p <= 1.0;
}

/** Whether a field gated by `g` can change a result under `cfg`. */
bool
keyed(const SystemConfig &cfg, KeyGate g)
{
    const FaultConfig &f = cfg.fault;
    switch (g) {
      case KeyGate::always: return true;
      case KeyGate::faults: return f.enabled;
      case KeyGate::crash: return f.enabled && f.crashMeanIntervalNs > 0.0;
      case KeyGate::lease: return f.enabled && f.leaseNs > 0.0;
      case KeyGate::meta:
        return f.enabled && f.metaCorruptMeanIntervalNs > 0.0;
      case KeyGate::never: return false;
    }
    return true;
}

} // namespace

void
FaultConfig::validate() const
{
    fatal_if(!inUnit(linkErrorRate),
             "fault.linkErrorRate must be in [0,1], got ", linkErrorRate);
    fatal_if(!inUnit(poisonRate),
             "fault.poisonRate must be in [0,1], got ", poisonRate);
    fatal_if(!inUnit(persistentPoisonFrac),
             "fault.persistentPoisonFrac must be in [0,1], got ",
             persistentPoisonFrac);
    fatal_if(!inUnit(migrationAbortRate),
             "fault.migrationAbortRate must be in [0,1], got ",
             migrationAbortRate);
    fatal_if(!inUnit(backoffThreshold),
             "fault.backoffThreshold must be in [0,1], got ",
             backoffThreshold);
    fatal_if(retrainIntervalNs < 0.0,
             "fault.retrainIntervalNs must be non-negative");
    fatal_if(retrainWindowNs < 0.0,
             "fault.retrainWindowNs must be non-negative");
    fatal_if(retrainIntervalNs > 0.0 &&
                 retrainWindowNs >= retrainIntervalNs,
             "fault.retrainWindowNs (", retrainWindowNs,
             ") must be shorter than retrainIntervalNs (",
             retrainIntervalNs, ")");
    fatal_if(crashMeanIntervalNs < 0.0,
             "fault.crashMeanIntervalNs must be non-negative");
    fatal_if(crashRejoinNs < 0.0,
             "fault.crashRejoinNs must be non-negative");
    fatal_if(crashMeanIntervalNs > 0.0 && crashMaxEvents == 0,
             "fault.crashMaxEvents must be positive when crashes are on");
    fatal_if(crashMaxEvents > 4096,
             "fault.crashMaxEvents above 4096 is not a crash schedule, "
             "it is a denial of service");
    fatal_if(leaseNs < 0.0, "fault.leaseNs must be non-negative");
    fatal_if(heartbeatIntervalNs < 0.0,
             "fault.heartbeatIntervalNs must be non-negative");
    fatal_if(leaseNs > 0.0 && heartbeatIntervalNs <= 0.0,
             "fault.heartbeatIntervalNs must be positive when a lease "
             "is configured");
    fatal_if(leaseNs > 0.0 && heartbeatIntervalNs >= leaseNs,
             "fault.heartbeatIntervalNs (", heartbeatIntervalNs,
             ") must be shorter than fault.leaseNs (", leaseNs,
             "): a lease that can expire between renewals suspects "
             "every host");
    fatal_if(leaseNs > 0.0 && txnTimeoutNs <= 0.0,
             "fault.txnTimeoutNs must be positive when a lease is "
             "configured, got ", txnTimeoutNs);
    fatal_if(txnTimeoutNs < 0.0, "fault.txnTimeoutNs must be non-negative");
    fatal_if(txnRetryLimit == 0 && txnBackoffBaseNs > 0.0,
             "fault.txnRetryLimit of 0 with txnBackoffBaseNs ",
             txnBackoffBaseNs, " arms a backoff that can never fire; "
             "set the backoff base to 0 or allow at least one retry");
    fatal_if(txnBackoffBaseNs < 0.0,
             "fault.txnBackoffBaseNs must be non-negative");
    fatal_if(txnBackoffMaxExp > 20,
             "fault.txnBackoffMaxExp above 20 overflows any realistic "
             "run");
    fatal_if(readmitDelayNs < 0.0,
             "fault.readmitDelayNs must be non-negative");
    fatal_if(stallMeanIntervalNs < 0.0,
             "fault.stallMeanIntervalNs must be non-negative");
    fatal_if(stallWindowNs < 0.0, "fault.stallWindowNs must be non-negative");
    fatal_if(stallMeanIntervalNs > 0.0 && leaseNs <= 0.0,
             "fault.stallMeanIntervalNs requires a lease (fault.leaseNs "
             "> 0): gray-failure stalls are only observable through a "
             "failure detector");
    fatal_if(stallMeanIntervalNs > 0.0 && stallWindowNs <= 0.0,
             "fault.stallWindowNs must be positive when stall windows "
             "are on");
    fatal_if(stallMeanIntervalNs > 0.0 && stallMaxEvents == 0,
             "fault.stallMaxEvents must be positive when stall windows "
             "are on");
    fatal_if(stallMaxEvents > 4096,
             "fault.stallMaxEvents above 4096 is not a stall schedule, "
             "it is a denial of service");
    fatal_if(metaCorruptMeanIntervalNs < 0.0,
             "fault.metaCorruptMeanIntervalNs must be non-negative");
    fatal_if(!inUnit(metaShadowHitFrac),
             "fault.metaShadowHitFrac must be in [0,1], got ",
             metaShadowHitFrac);
    fatal_if(metaCorruptMeanIntervalNs > 0.0 && metaCorruptMaxEvents == 0,
             "fault.metaCorruptMaxEvents must be positive when metadata "
             "corruption is on");
    fatal_if(metaCorruptMaxEvents > 4096,
             "fault.metaCorruptMaxEvents above 4096 is not a corruption "
             "schedule, it is a denial of service");
    fatal_if(metaJournalPages > 4096,
             "fault.metaJournalPages above 4096 is not a journal, it is "
             "an unbounded log");
    fatal_if(metaScrubIntervalNs < 0.0,
             "fault.metaScrubIntervalNs must be non-negative");
    fatal_if(metaCorruptMeanIntervalNs > 0.0 && metaScrubIntervalNs <= 0.0,
             "fault.metaScrubIntervalNs must be positive when metadata "
             "corruption is on: corruption that is never scrubbed never "
             "heals");
    fatal_if(metaCorruptMeanIntervalNs > 0.0 && metaScrubBudget == 0,
             "fault.metaScrubBudget must be positive when metadata "
             "corruption is on");
    fatal_if(metaCorruptMeanIntervalNs > 0.0 && metaBreakerThreshold == 0,
             "fault.metaBreakerThreshold must be positive when metadata "
             "corruption is on");
    fatal_if(metaCorruptMeanIntervalNs > 0.0 && metaBreakerWindowNs <= 0.0,
             "fault.metaBreakerWindowNs must be positive when metadata "
             "corruption is on");
    fatal_if(metaCorruptMeanIntervalNs > 0.0 &&
                 metaBreakerCooldownNs <= 0.0,
             "fault.metaBreakerCooldownNs must be positive when metadata "
             "corruption is on");
    fatal_if(metaBreakerMaxExp > 20,
             "fault.metaBreakerMaxExp above 20 overflows any realistic "
             "run");
    fatal_if(metaCorruptMeanIntervalNs > 0.0 && metaBreakerGroupPages == 0,
             "fault.metaBreakerGroupPages must be positive when metadata "
             "corruption is on");
    fatal_if(backoffWindow == 0, "fault.backoffWindow must be positive");
    fatal_if(backoffBaseNs < 0.0,
             "fault.backoffBaseNs must be non-negative");
    fatal_if(backoffMaxExp > 20,
             "fault.backoffMaxExp above 20 overflows any realistic run");
}

unsigned
FaultConfig::activeDomains() const
{
    if (!enabled)
        return 0;
    unsigned n = 0;
    // §7: anything that perturbs the link/media fault stream.
    if (linkErrorRate > 0.0 || retrainIntervalNs > 0.0 ||
        poisonRate > 0.0 || migrationAbortRate > 0.0)
        ++n;
    if (crashMeanIntervalNs > 0.0)                        // §8
        ++n;
    if (leaseNs > 0.0 || stallMeanIntervalNs > 0.0)       // §11
        ++n;
    if (metaCorruptMeanIntervalNs > 0.0)                  // §12
        ++n;
    return n;
}

void
SystemConfig::validate() const
{
    fatal_if(numHosts == 0 || numHosts > 32,
             "numHosts must be in [1,32] (5-bit host IDs), got ", numHosts);
    fatal_if(coresPerHost == 0, "coresPerHost must be positive");
    fatal_if(footprintScale == 0, "footprintScale must be positive");
    fatal_if(timeScale == 0, "timeScale must be positive");
    fatal_if(localBytesPerHost() < pageBytes,
             "local DRAM per host smaller than one page");
    fatal_if(cxlPoolBytes() < pageBytes, "CXL pool smaller than one page");
    // Host h's local DRAM starts at h x the scaled local size and the
    // CXL pool after the last host, so that size must be whole pages:
    // a fractional one (footprint scale 255 gives 32 GB / 255 =
    // 32896.5 pages) starts the pool mid-page, and one page's lines
    // then fall into two regions.
    fatal_if(localBytesPerHost() % pageBytes != 0,
             "scaled local DRAM per host must be a whole number of pages, "
             "got ", localBytesPerHost(), " B (", localBytesPerHostFull,
             " B / footprint scale ", footprintScale, ")");
    fatal_if(l1Scale == 0 || llcScale == 0, "cache scales must be positive");
    fatal_if(l1.ways == 0 || llcPerCore.ways == 0,
             "cache associativity must be positive");
    fatal_if((l1Bytes() % (lineBytes * l1.ways)) != 0,
             "scaled L1 size not divisible into sets");
    fatal_if((llcBytesPerCore() % (lineBytes * llcPerCore.ways)) != 0,
             "scaled LLC size not divisible into sets");
    // SetAssoc requires power-of-two set counts; reject here with the
    // geometry spelled out instead of letting its constructor panic
    // deep inside system construction.
    const auto pow2 = [](std::uint64_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    fatal_if(!pow2(l1Bytes() / (lineBytes * l1.ways)),
             "scaled L1 set count must be a power of two, got ",
             l1Bytes() / (lineBytes * l1.ways), " (", l1Bytes(),
             " B / ", l1.ways, " ways)");
    fatal_if(!pow2(llcBytesPerCore() * coresPerHost /
                   (lineBytes * llcPerCore.ways)),
             "scaled LLC set count must be a power of two, got ",
             llcBytesPerCore() * coresPerHost /
                 (lineBytes * llcPerCore.ways),
             " (", llcBytesPerCore(), " B per core x ", coresPerHost,
             " cores / ", llcPerCore.ways, " ways)");
    fatal_if(!pow2(static_cast<std::uint64_t>(deviceDirectory.sets) *
                   deviceDirectory.slices),
             "device directory sets x slices must be a power of two, "
             "got ", deviceDirectory.sets, " x ",
             deviceDirectory.slices);
    fatal_if(core.width == 0, "core retire width must be positive");
    fatal_if(core.robEntries == 0, "ROB size must be positive");
    fatal_if(core.mshrs == 0, "core MSHR count must be positive");
    fatal_if(link.bytesPerNs <= 0.0,
             "CXL link bandwidth must be positive, got ", link.bytesPerNs);
    fatal_if(link.latencyNs < 0.0, "CXL link latency must be non-negative");
    fatal_if(link.hasSwitch && link.switchBytesPerNs <= 0.0,
             "CXL switch bandwidth must be positive, got ",
             link.switchBytesPerNs);
    fatal_if(localDram.bytesPerCycle <= 0.0 ||
                 cxlDram.bytesPerCycle <= 0.0,
             "DRAM bandwidth must be positive");
    fatal_if(localDram.channels == 0 || cxlDram.channels == 0,
             "DRAM channel count must be positive");
    fatal_if(deviceDirectory.ways == 0 || deviceDirectory.sets == 0 ||
                 deviceDirectory.slices == 0,
             "device directory geometry must be non-zero");
    fatal_if(localDirectory.ways == 0 || localDirectory.sets == 0,
             "local directory geometry must be non-zero");
    fatal_if(pipm.globalCacheWays == 0 || pipm.localCacheWays == 0,
             "remapping cache associativity must be positive");
    fatal_if(pipm.migrationThreshold == 0,
             "PIPM migration threshold must be positive");
    fatal_if(pipm.globalCounterBits == 0 || pipm.globalCounterBits > 8 ||
                 pipm.localCounterBits == 0 || pipm.localCounterBits > 8,
             "PIPM counter widths must be in [1,8] bits");
    fatal_if(pipm.migrationThreshold >=
                 (1u << pipm.globalCounterBits),
             "migration threshold (", pipm.migrationThreshold,
             ") must fit in the ", pipm.globalCounterBits,
             "-bit global vote counter");
    fatal_if(osMigration.maxPagesPerEpoch == 0,
             "maxPagesPerEpoch must be positive");
    fatal_if(osMigration.intervalMs <= 0.0,
             "osMigration.intervalMs must be positive, got ",
             osMigration.intervalMs);
    fault.validate();
}

std::string
SystemConfig::measurementKey() const
{
    std::string key;
    forEachField(*this, [&](const char *path, const auto &v, KeyGate g) {
        if (!keyed(*this, g))
            return;
        // Shortest text that parses back to the same value, so two
        // configs whose doubles differ never share a key.
        char buf[32];
        std::to_chars_result r;
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
            r = std::to_chars(buf, buf + sizeof buf, v);
        else
            r = std::to_chars(buf, buf + sizeof buf,
                              static_cast<std::uint64_t>(v));
        key.append(path).append(1, '=').append(buf, r.ptr).append(1, ',');
    });
    return key;
}

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << "Architecture     | " << numHosts << " hosts, 1 single-socket CPU "
       << "each host\n"
       << "CPU              | " << coresPerHost << " OoO cores, 4GHz, "
       << core.width << "-wide, " << core.robEntries << "-entry ROB, "
       << core.loadQueue << "-entry LQ, " << core.storeQueue
       << "-entry SQ\n"
       << "Private L1-(I/D) | " << l1.sizeBytes / 1024 << "KB, " << l1.ways
       << "-way, " << l1.roundTrip << " cycle RT latency\n"
       << "Shared LLC       | " << llcPerCore.sizeBytes / (1024 * 1024)
       << "MB per core, " << llcPerCore.ways << "-way, "
       << llcPerCore.roundTrip << "-cycle RT latency\n"
       << "DRAM             | " << cxlDram.channels << "x DDR5-4800 channels "
       << (cxlPoolBytesFull >> 30) << "GB CXL-DSM; " << localDram.channels
       << "x DDR5-4800 channel " << (localBytesPerHostFull >> 30)
       << "GB DRAM per host (footprint scale 1/" << footprintScale << ")\n"
       << "tRC-tRCD-tCL-tRP | " << localDram.tRCns << "-" << localDram.tRCDns
       << "-" << localDram.tCLns << "-" << localDram.tRPns << " ns\n"
       << "CXL link         | latency: " << link.latencyNs
       << "ns, bandwidth: " << link.bytesPerNs
       << "GB/s (per direction)\n"
       << "CXL Directory    | " << deviceDirectory.sets << "-set, "
       << deviceDirectory.ways << "-way per slice, "
       << deviceDirectory.slices << " slices, "
       << deviceDirectory.roundTrip / 2 << "-cycle RT @2GHz\n"
       << "PIPM parameters  | " << pipm.globalCacheBytes / 1024
       << "KB " << pipm.globalCacheWays << "-way global remapping cache, "
       << pipm.globalCacheRoundTrip << "-cycle RT; "
       << pipm.localCacheBytes / (1024 * 1024) << "MB "
       << pipm.localCacheWays << "-way local remapping cache, "
       << pipm.localCacheRoundTrip << "-cycle RT; Migration threshold: "
       << pipm.migrationThreshold << "\n"
       << "OS migration     | interval " << osMigration.intervalMs
       << "ms, 4KB costs " << osMigration.perPageInitiatorUs
       << "us initiator / " << osMigration.perPageOtherUs
       << "us others (time scale 1/" << timeScale << ")\n";
    return os.str();
}

SystemConfig
defaultConfig()
{
    SystemConfig cfg;      // Table 2 values are the member defaults.
    cfg.validate();
    return cfg;
}

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.numHosts = 2;
    cfg.coresPerHost = 1;
    cfg.l1 = CacheConfig{4 * 1024, 4, 4};
    cfg.llcPerCore = CacheConfig{64 * 1024, 8, 24};
    cfg.l1Scale = 1;      // test sizes are already small
    cfg.llcScale = 1;
    cfg.localBytesPerHostFull = 64ull << 20;   // 64 MB
    cfg.cxlPoolBytesFull = 256ull << 20;       // 256 MB
    cfg.footprintScale = 4;                    // -> 16 MB local, 64 MB CXL
    cfg.timeScale = 1000;
    cfg.pipm.globalCacheBytes = 4 * 1024;
    cfg.pipm.localCacheBytes = 64 * 1024;
    cfg.deviceDirectory.sets = 256;
    cfg.localDirectory.sets = 256;
    cfg.validate();
    return cfg;
}

FaultConfig
paperFaultConfig(std::uint64_t seed)
{
    FaultConfig f;
    f.enabled = true;
    f.seed = seed;
    f.linkErrorRate = 5e-4;
    f.retrainIntervalNs = 200'000.0;   // one window per 0.2 ms per host
    f.retrainWindowNs = 2'000.0;
    f.poisonRate = 1e-4;
    f.persistentPoisonFrac = 0.25;
    f.migrationAbortRate = 0.02;
    f.validate();
    return f;
}

FaultConfig
paperCrashFaultConfig(std::uint64_t seed, double mean_interval_ns,
                      double rejoin_ns)
{
    FaultConfig f = paperFaultConfig(seed);
    f.crashMeanIntervalNs = mean_interval_ns;
    f.crashRejoinNs = rejoin_ns;
    f.validate();
    return f;
}

FaultConfig
paperSuspicionFaultConfig(std::uint64_t seed, double lease_ns,
                          double stall_mean_interval_ns)
{
    FaultConfig f = paperCrashFaultConfig(seed);
    f.leaseNs = lease_ns;
    f.heartbeatIntervalNs = lease_ns / 5.0;
    f.txnTimeoutNs = 2'000.0;
    f.txnRetryLimit = 3;
    f.txnBackoffBaseNs = 1'000.0;
    f.txnBackoffMaxExp = 3;
    f.readmitDelayNs = 10'000.0;
    f.stallMeanIntervalNs = stall_mean_interval_ns;
    // Mean window length 1.5x the lease: drawn lengths span
    // [0.75, 2.25] x lease, so some stalls are ridden out by retries and
    // the rest expire the lease and fence the (alive) host.
    f.stallWindowNs = 1.5 * lease_ns;
    f.validate();
    return f;
}

void
addPaperMetaFaults(FaultConfig &fault, double mean_interval_ns)
{
    fault.metaCorruptMeanIntervalNs = mean_interval_ns;
    // Member defaults for the remaining §12 knobs (shadow-hit fraction,
    // journal capacity, scrub cadence/budget, breaker shape) are the
    // paper configuration; only the event rate is a parameter.
    fault.validate();
}

FaultConfig
paperMetaFaultConfig(std::uint64_t seed, double mean_interval_ns)
{
    FaultConfig f = paperFaultConfig(seed);
    addPaperMetaFaults(f, mean_interval_ns);
    return f;
}

} // namespace pipm
