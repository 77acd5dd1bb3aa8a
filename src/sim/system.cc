#include "sim/system.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "migration/hemem.hh"
#include "migration/memtis.hh"
#include "migration/nomad.hh"
#include "migration/os_skew.hh"

namespace pipm
{

namespace
{

/** Approximate serialisation cycles of a flit on a link. */
Cycles
flitCycles(const CxlLinkConfig &link, unsigned bytes)
{
    const double bytes_per_cycle = link.bytesPerNs / cyclesPerNs;
    return std::max<Cycles>(
        1, static_cast<Cycles>(static_cast<double>(bytes) / bytes_per_cycle));
}

/** Analytic DRAM access latency (row-miss, unloaded). */
Cycles
dramEstimate(const DramConfig &d)
{
    return nsToCycles(d.controllerNs + d.tRCDns + d.tCLns) +
           static_cast<Cycles>(lineBytes / d.bytesPerCycle);
}

/** Advance a periodic deadline past `now` after it fired. */
void
advanceDeadline(Cycles &deadline, Cycles period, Cycles now)
{
    deadline += period;
    if (deadline <= now)
        deadline = now + period;
}

} // namespace

LatencyEstimates
LatencyEstimates::from(const SystemConfig &cfg)
{
    LatencyEstimates e;
    const Cycles cache_path =
        cfg.l1.roundTrip + cfg.llcPerCore.roundTrip +
        cfg.localDirectory.roundTrip;
    const Cycles hop = nsToCycles(cfg.link.latencyNs) +
                       (cfg.link.hasSwitch ? nsToCycles(cfg.link.switchNs)
                                           : 0);
    e.local = cache_path + dramEstimate(cfg.localDram);
    e.cxl = cache_path + hop + flitCycles(cfg.link, CxlFlits::header) +
            cfg.deviceDirectory.roundTrip + dramEstimate(cfg.cxlDram) +
            hop + flitCycles(cfg.link, CxlFlits::data);
    e.gim = cache_path + 4 * hop + 2 * flitCycles(cfg.link, CxlFlits::header) +
            2 * flitCycles(cfg.link, CxlFlits::data) +
            cfg.llcPerCore.roundTrip + dramEstimate(cfg.localDram);
    return e;
}

MultiHostSystem::MultiHostSystem(const SystemConfig &cfg, Scheme scheme,
                                 const Workload &workload,
                                 std::uint64_t seed)
    : cfg_(cfg),
      scheme_(scheme),
      seed_(seed),
      space_(std::make_unique<AddressSpace>(cfg, workload.sharedBytes(),
                                            workload.privateBytesPerHost())),
      mem_(cfg.trackValues || cfg.fault.enabled),
      deviceDir_(cfg.deviceDirectory),
      cxlDram_(cfg.cxlDram, "cxl_dram"),
      est_(LatencyEstimates::from(cfg)),
      stats_("system")
{
    cfg_.validate();

    hostAlive_.assign(cfg.numHosts, 1);
    hostEpoch_.assign(cfg.numHosts, 0);
    hostDownUntil_.assign(cfg.numHosts, 0);

    // Pre-size the sparse memory image for the written working set so
    // rehash churn doesn't dominate early-fill cost (the image holds
    // touched lines, not all of shared memory, and is only ever probed
    // point-wise — capacity history is unobservable). Benchmark-scale
    // runs write a few hundred thousand distinct lines, so the cap is
    // sized to absorb them without growth rehashes; the table is past
    // LLC size either way at that point. An untracked image stores
    // nothing and needs no table.
    const std::uint64_t shared_lines =
        space_->sharedPages() * linesPerPage;
    if (mem_.tracksValues())
        mem_.reserve(std::min<std::uint64_t>(shared_lines, 1u << 17));

    if (cfg.fault.enabled) {
        faults_ = std::make_unique<FaultInjector>(
            cfg.fault, cfg.numHosts,
            seed ^ (cfg.fault.seed * 0x9e3779b97f4a7c15ull));
        pendingDirty_.resize(cfg.numHosts);
    }
    detection_ = faults_ && cfg.fault.leaseNs > 0.0;
    if (detection_) {
        leaseCycles_ = nsToCycles(cfg.fault.leaseNs);
        heartbeatCycles_ = nsToCycles(cfg.fault.heartbeatIntervalNs);
        if (heartbeatCycles_ == 0)
            heartbeatCycles_ = 1;
        readmitCycles_ = nsToCycles(cfg.fault.readmitDelayNs);
        needsReclaim_.assign(cfg.numHosts, 0);
        trusted_.assign(cfg.numHosts, 1);
        lastHeartbeat_.assign(cfg.numHosts, 0);
        nextHeartbeat_.resize(cfg.numHosts);
        zombieReadmitAt_.assign(cfg.numHosts, 0);
        for (unsigned h = 0; h < cfg.numHosts; ++h) {
            // Stagger renewals across hosts so a shared grid point does
            // not make every lease expire in the same tick.
            const Cycles phase =
                (static_cast<Cycles>(h) * heartbeatCycles_) / cfg.numHosts;
            nextHeartbeat_[h] = phase ? phase : heartbeatCycles_;
        }
    }
    metaFaults_ = faults_ && cfg.fault.metaCorruptMeanIntervalNs > 0.0;
    if (metaFaults_) {
        metaScrubInterval_ = nsToCycles(cfg.fault.metaScrubIntervalNs);
        if (metaScrubInterval_ == 0)
            metaScrubInterval_ = 1;
        nextMetaScrub_ = metaScrubInterval_;
    }
    if (cfg.link.hasSwitch) {
        switch_ = std::make_unique<CxlSwitch>(cfg.link.switchBytesPerNs,
                                              cfg.link.switchNs);
    }
    hosts_.resize(cfg.numHosts);
    for (unsigned h = 0; h < cfg.numHosts; ++h) {
        Host &host = hosts_[h];
        host.caches =
            std::make_unique<CacheHierarchy>(cfg, seed + 101 * (h + 1));
        host.dram = std::make_unique<DramDevice>(cfg.localDram,
                                                 "local_dram");
        host.link = std::make_unique<CxlLink>(cfg.link, "link",
                                              switch_.get());
        if (faults_)
            host.link->attachFaults(faults_.get(),
                                    static_cast<HostId>(h));
        host.pendingStall.assign(cfg.coresPerHost, 0);
        if (cfg.tlb.enabled) {
            TlbConfig tlb_cfg;
            tlb_cfg.entries = cfg.tlb.entries;
            tlb_cfg.ways = cfg.tlb.ways;
            tlb_cfg.hitCycles = cfg.tlb.hitCycles;
            tlb_cfg.walkCycles = cfg.tlb.walkCycles;
            host.tlbs.reserve(cfg.coresPerHost);
            for (unsigned c = 0; c < cfg.coresPerHost; ++c)
                host.tlbs.emplace_back(tlb_cfg, seed + 31 * (h + c + 1));
        }
        if (usesPipmMechanism(scheme)) {
            host.localRemap = std::make_unique<RemapCache>(
                cfg.pipm.localCacheBytes, 4, cfg.pipm.localCacheWays,
                cfg.pipm.localCacheRoundTrip, "local_remap",
                cfg.pipm.infiniteLocalCache);
        }
    }

    if (usesPipmMechanism(scheme)) {
        globalRemap_ = std::make_unique<RemapCache>(
            cfg.pipm.globalCacheBytes, 2, cfg.pipm.globalCacheWays,
            cfg.pipm.globalCacheRoundTrip, "global_remap",
            cfg.pipm.infiniteGlobalCache);
        pipm_ = std::make_unique<PipmState>(
            cfg.pipm, cfg.numHosts,
            scheme == Scheme::hwStatic ? PipmMode::staticMap
                                       : PipmMode::vote,
            *space_);
        pipm_->reservePages(space_->sharedPages(),
                            cfg.localBytesPerHost() / pageBytes);
        if (metaFaults_)
            pipm_->enableJournal(cfg.fault.metaJournalPages);
        naiveCoherence_ = scheme == Scheme::pipmNaive;
    }

    if (usesOsMigration(scheme)) {
        const std::uint64_t pages = space_->sharedPages();
        switch (scheme) {
          case Scheme::nomad:
            osPolicy_ = std::make_unique<NomadPolicy>(pages, cfg.numHosts);
            break;
          case Scheme::memtis:
            osPolicy_ = std::make_unique<MemtisPolicy>(pages, cfg.numHosts);
            break;
          case Scheme::hemem:
            osPolicy_ = std::make_unique<HememPolicy>(pages, cfg.numHosts);
            break;
          case Scheme::osSkew:
            osPolicy_ = std::make_unique<OsSkewPolicy>(
                pages, cfg.numHosts, cfg.osMigration.hotThreshold);
            break;
          default:
            panic("unreachable OS scheme");
        }
        migratedTo_.assign(pages, invalidHost);
        const Cycles mig_cost =
            cfg.osPageInitiatorCycles() +
            cfg.osPageOtherCycles() *
                (cfg.numHosts * cfg.coresPerHost - 1);
        harmful_ = std::make_unique<HarmfulTracker>(est_.local, est_.cxl,
                                                    est_.gim, mig_cost);
        harmful_->reserve(std::min<std::uint64_t>(space_->sharedPages(),
                                                  1u << 14));
        nextEpoch_ = cfg.osEpochCycles();
    }

    stats_.addCounter(&demandAccesses, "demand_accesses",
                      "all demand accesses");
    stats_.addCounter(&sharedAccesses, "shared_accesses",
                      "accesses to shared heap data");
    stats_.addCounter(&sharedLlcMisses, "shared_llc_misses",
                      "shared accesses missing the caches");
    stats_.addCounter(&localServedMisses, "local_served_misses",
                      "shared misses served by own local DRAM");
    stats_.addCounter(&cxlServedMisses, "cxl_served_misses",
                      "shared misses served by CXL memory");
    stats_.addCounter(&interHostAccesses, "inter_host_accesses",
                      "accesses served from another host");
    stats_.addCounter(&interHostStallCycles, "inter_host_stall_cycles",
                      "latency sum of inter-host accesses");
    stats_.addCounter(&mgmtStallCycles, "mgmt_stall_cycles",
                      "kernel migration stalls charged to cores");
    stats_.addCounter(&migrationTransferBytes, "migration_transfer_bytes",
                      "page-copy bytes moved by OS migration (unscaled)");
    stats_.addCounter(&osMigrations, "os_migrations",
                      "whole-page promotions executed");
    stats_.addCounter(&osDemotions, "os_demotions",
                      "whole-page demotions executed");
    stats_.addCounter(&upgradeMisses, "upgrades", "S->M upgrades");
    stats_.addAverage(&avgSharedMissLatency, "avg_shared_miss_latency",
                      "mean latency of shared LLC misses");
    stats_.addAverage(&avgLocalMissLatency, "avg_local_miss_latency",
                      "mean latency of locally served shared misses");
    stats_.addAverage(&avgCxlMissLatency, "avg_cxl_miss_latency",
                      "mean latency of CXL-served shared misses");
    stats_.addAverage(&avgInterHostLatency, "avg_inter_host_latency",
                      "mean latency of inter-host accesses");
}

MultiHostSystem::~MultiHostSystem() = default;

HostId
MultiHostSystem::gimHostOf(std::uint64_t shared_idx) const
{
    return space_->sharedMapping(shared_idx).gimHost;
}

void
MultiHostSystem::setPageMigrationAllowed(std::uint64_t shared_idx,
                                         bool allowed)
{
    panic_if(!pipm_, "migration pinning requires a PIPM-mechanism scheme");
    const PageFrame page =
        pageOf(pageBase(space_->sharedMapping(shared_idx).cxlFrame));
    pipm_->setMigrationAllowed(page, allowed);
    if (!allowed && pipm_->migratedHostOf(page) != invalidHost)
        performRevocation(pipm_->migratedHostOf(page), page, 0);
}

Cycles
MultiHostSystem::takePendingStall(HostId h, CoreId c)
{
    return std::exchange(hosts_[h].pendingStall[c], Cycles{0});
}

AccessResult
MultiHostSystem::access(HostId h, CoreId c, const MemRef &ref,
                        Cycles now_in, std::uint64_t write_data)
{
    // Untracked values: the image reads 0, so dropping the written
    // token too keeps every cached token, and so every returned one, 0.
    if (!mem_.tracksValues())
        write_data = 0;

    panic_if(h >= cfg_.numHosts, "host id out of range");
    panic_if(!hostAlive_[h], "access issued by crashed host ", int(h));
    demandAccesses.inc();
    const Cycles stall = takePendingStall(h, c);
    const Cycles now = now_in + stall;
    Cycles lat = 0;
    std::uint64_t data = 0;

    if (!hosts_[h].tlbs.empty()) {
        // Virtual page namespace: shared pages first, then per-host
        // private ranges (matches the trace generators' reference space).
        const std::uint64_t vpage =
            ref.shared ? ref.page
                       : space_->sharedPages() +
                             static_cast<std::uint64_t>(h) * (1ull << 20) +
                             ref.page;
        lat += hosts_[h].tlbs[c].translate(vpage);
    }

    if (!ref.shared) {
        const PhysAddr pa = space_->privateAddr(
            h, ref.page * pageBytes +
                   static_cast<std::uint64_t>(ref.lineIdx) * lineBytes);
        lat += localAccess(LineAccess(h, c, pa, ref.op, now, write_data,
                                      &data));
        return {lat, stall, data};
    }

    sharedAccesses.inc();
    const std::uint64_t idx = ref.page;
    const SharedMapping &mapping = space_->sharedMapping(idx);
    auto line_pa = [&](PageFrame frame) {
        return pageBase(frame) +
               static_cast<PhysAddr>(ref.lineIdx) * lineBytes;
    };
    const LineAccess a(h, c, line_pa(mapping.frame), ref.op, now,
                       write_data, &data);

    if (scheme_ == Scheme::localOnly || mapping.gimHost == h) {
        // Upper-bound "Local-only" serves every shared line from this
        // host's own DRAM with no coherence traffic (cross-host data
        // consistency is deliberately not modelled, §5.1.3); an
        // OS-migrated page owned by this host is a plain local access.
        const auto before = hosts_[h].caches->misses.value();
        const Cycles local = localAccess(a);
        lat += local;
        if (hosts_[h].caches->misses.value() != before) {
            sharedLlcMisses.inc();
            noteLocalServedMiss(local);
            if (osPolicy_)
                osPolicy_->recordAccess(idx, h);
            if (harmful_)
                harmful_->onLocalHit(idx);
        }
        return {lat, stall, data};
    }

    if (mapping.gimHost == invalidHost) {
        lat += cxlAccess(a, idx);
        return {lat, stall, data};
    }

    // Fig. 3: non-cacheable 4-hop inter-host access.
    const HostId gim_owner = mapping.gimHost;
    if (detection_) {
        const TxnAwait aw = awaitHost(gim_owner, now, true);
        lat += aw.latency;
        if (!aw.ok) {
            // Owner fenced: its GIM pages were demoted back to CXL
            // during reclamation; re-resolve and take the CXL path.
            const PageFrame frame = space_->sharedMapping(idx).frame;
            lat += cxlAccess(LineAccess(h, c, line_pa(frame), ref.op,
                                        now + lat, write_data, &data),
                             idx);
            return {lat, stall, data};
        }
    }
    sharedLlcMisses.inc();
    lat += gimRemoteAccess(a, gim_owner);
    if (osPolicy_)
        osPolicy_->recordAccess(idx, h);
    if (harmful_)
        harmful_->onRemoteAccess(idx);
    return {lat, stall, data};
}

std::optional<Cycles>
MultiHostSystem::cacheHit(const LineAccess &a)
{
    CacheHierarchy &hier = *hosts_[a.h].caches;
    const auto hit = hier.cachedAccess(a.c, a.line, a.isWrite, a.wdata);
    if (hit.level == HitLevel::miss)
        return std::nullopt;
    Cycles lat = hier.l1RoundTrip();
    if (hit.level == HitLevel::llc)
        lat += hier.llcRoundTrip();
    if (!a.isWrite) {
        *a.rdata = hit.data;
        return lat;
    }
    if (!hit.completed) {
        // S copy: upgrade first. Any other non-writable state hits
        // recordWrite's panic, as it always has.
        if (hit.state == HostState::S) {
            lat += upgrade(a.h, a.line, a.now);
            hier.setState(a.line, HostState::M);
        }
        hier.recordWrite(a.c, a.line, a.wdata);
    }
    return lat;
}

void
MultiHostSystem::fill(const LineAccess &a, HostState state, bool dirty,
                      std::uint64_t data)
{
    if (auto ev = hosts_[a.h].caches->fillAccess(a.c, a.line, state, dirty,
                                                 data, a.isWrite, a.wdata))
        handleEviction(a.h, *ev, a.now);
    if (!a.isWrite)
        *a.rdata = data;
}

void
MultiHostSystem::noteLocalServedMiss(Cycles lat)
{
    localServedMisses.inc();
    avgSharedMissLatency.sample(static_cast<double>(lat));
    avgLocalMissLatency.sample(static_cast<double>(lat));
}

void
MultiHostSystem::noteCxlServedMiss(Cycles lat)
{
    cxlServedMisses.inc();
    avgSharedMissLatency.sample(static_cast<double>(lat));
    avgCxlMissLatency.sample(static_cast<double>(lat));
}

void
MultiHostSystem::noteInterHostMiss(Cycles lat)
{
    interHostAccesses.inc();
    interHostStallCycles.inc(lat);
    avgInterHostLatency.sample(static_cast<double>(lat));
    avgSharedMissLatency.sample(static_cast<double>(lat));
}

PhysAddr
MultiHostSystem::hostDramOffset(HostId h, PhysAddr pa) const
{
    return cfg_.regionOf(pa) == AddrRegion::cxlPool
               ? (pa - cfg_.cxlBase()) % cfg_.localBytesPerHost()
               : pa - cfg_.localBase(h);
}

Cycles
MultiHostSystem::localAccess(const LineAccess &a)
{
    if (const auto hit = cacheHit(a))
        return *hit;

    // Miss: local lines are host-exclusive (no cross-host coherence for
    // local memory); fill in M.
    const CacheHierarchy &hier = *hosts_[a.h].caches;
    Cycles lat = hier.l1RoundTrip() + hier.llcRoundTrip() +
                 cfg_.localDirectory.roundTrip;
    lat += hosts_[a.h].dram->access(hostDramOffset(a.h, a.pa), a.now, false);
    fill(a, HostState::M, false, mem_.read(a.line));
    return lat;
}

Cycles
MultiHostSystem::gimRemoteAccess(const LineAccess &a, HostId owner)
{
    // Hop 1: requester -> CXL root complex at the memory node.
    Cycles lat = hosts_[a.h].link->transfer(
        LinkDir::toDevice, a.isWrite ? CxlFlits::data : CxlFlits::header,
        a.now);
    // Hop 2: memory node -> owning host.
    lat += hosts_[owner].link->transfer(
        LinkDir::toHost, a.isWrite ? CxlFlits::data : CxlFlits::header,
        a.now);

    // At the owner: local coherence directory resolves cache vs memory.
    CacheHierarchy &ohier = *hosts_[owner].caches;
    lat += cfg_.localDirectory.roundTrip;
    if (ohier.stateOf(a.line) != HostState::I) {
        lat += ohier.llcRoundTrip();
        if (a.isWrite)
            ohier.recordWrite(0, a.line, a.wdata);
        else
            *a.rdata = ohier.dataOf(a.line);
    } else {
        lat += hosts_[owner].dram->access(a.pa - cfg_.localBase(owner),
                                          a.now, a.isWrite);
        if (a.isWrite)
            mem_.write(a.line, a.wdata);
        else
            *a.rdata = mem_.read(a.line);
    }

    // Hops 3 and 4: owner -> memory node -> requester.
    lat += hosts_[owner].link->transfer(
        LinkDir::toDevice, a.isWrite ? CxlFlits::header : CxlFlits::data,
        a.now);
    lat += hosts_[a.h].link->transfer(
        LinkDir::toHost, a.isWrite ? CxlFlits::header : CxlFlits::data,
        a.now);

    noteInterHostMiss(lat);
    return lat;
}

Cycles
MultiHostSystem::localRemapLookup(HostId h, PageFrame page, Cycles now)
{
    RemapCache &rc = *hosts_[h].localRemap;
    Cycles lat = rc.roundTrip();
    if (!rc.lookup(page)) {
        // Two-level radix walk in local DRAM: one access when the root
        // entry is empty, two when a leaf must be read.
        const unsigned walks =
            pipm_->hasLocalEntry(h, page) ? cfg_.pipm.tableLevels : 1;
        for (unsigned i = 0; i < walks; ++i) {
            // Table pages live in local DRAM; hash the page to spread
            // walk traffic over banks.
            const PhysAddr walk_addr =
                (page * 0x9e3779b97f4a7c15ull) %
                cfg_.localBytesPerHost();
            lat += hosts_[h].dram->access(walk_addr, now, false);
        }
        rc.fill(page);
    }
    return lat;
}

Cycles
MultiHostSystem::globalRemapLookup(PageFrame page, Cycles now)
{
    RemapCache &rc = *globalRemap_;
    Cycles lat = rc.roundTrip();
    if (!rc.lookup(page)) {
        const PhysAddr walk_addr =
            (page * 0x9e3779b97f4a7c15ull) % cfg_.cxlPoolBytes();
        lat += cxlDram_.access(walk_addr, now, false);
        rc.fill(page);
    }
    return lat;
}

Cycles
MultiHostSystem::invalidateSharers(const DirEntry &entry, LineAddr line,
                                   HostId h, Cycles now)
{
    // Invalidate every sharer but h in parallel; the latency is the
    // slowest round trip among them.
    Cycles inv_max = 0;
    for (unsigned s = 0; s < cfg_.numHosts; ++s) {
        const auto sh = static_cast<HostId>(s);
        if (sh == h || !entry.has(sh))
            continue;
        Cycles rt = 0;
        if (detection_) {
            // A stalled sharer delays its ack; the invalidation itself
            // still lands (suspect_on_fail = false keeps `entry` valid).
            rt += awaitHost(sh, now, false).latency;
        }
        rt += hosts_[sh].link->transfer(LinkDir::toHost,
                                        CxlFlits::header, now);
        rt += hosts_[sh].caches->llcRoundTrip();
        hosts_[sh].caches->invalidateLine(line);   // S copies are clean
        rt += hosts_[sh].link->transfer(LinkDir::toDevice,
                                        CxlFlits::header, now + rt);
        inv_max = std::max(inv_max, rt);
    }
    return inv_max;
}

DirEntry
MultiHostSystem::exclusiveEntry(HostId h) const
{
    return {DevState::M, 1u << h, hostEpoch_[h]};
}

void
MultiHostSystem::grantExclusive(DirEntry &entry, LineAddr line, HostId h,
                                Cycles now)
{
    noteDirState(line, entry.state, DevState::M, h, now);
    entry = exclusiveEntry(h);
}

Cycles
MultiHostSystem::upgrade(HostId h, LineAddr line, Cycles now)
{
    upgradeMisses.inc();
    Cycles lat = hosts_[h].link->transfer(LinkDir::toDevice,
                                          CxlFlits::header, now);
    lat += deviceDir_.accessLatency(line, now);
    DirEntry *entry = deviceDir_.lookup(line);
    panic_if(!entry, "upgrade: no directory entry for cached S line ",
             line);
    panic_if(!entry->has(h), "upgrade: host not recorded as sharer");
    lat += invalidateSharers(*entry, line, h, now);
    grantExclusive(*entry, line, h, now);
    lat += hosts_[h].link->transfer(LinkDir::toHost, CxlFlits::header,
                                    now);
    return lat;
}

void
MultiHostSystem::dirAllocate(LineAddr line, DirEntry entry, Cycles now)
{
    // A recalled victim is invalidated at its sharers off the demand
    // critical path.
    if (auto recall = deviceDir_.allocate(line, entry))
        recallEntry(recall->line, recall->entry, false, now);
}

Cycles
MultiHostSystem::recallEntry(LineAddr line, const DirEntry &entry,
                             bool live_only, Cycles now)
{
    // A line owned in M by a dead-but-unreclaimed host cannot write
    // back: account the loss before the entry evaporates. Every other
    // sharer invalidates its copy; dirty data is written back.
    noteDeadOwnedDrop(line, entry);
    Cycles lat = 0;
    for (unsigned s = 0; s < cfg_.numHosts; ++s) {
        const auto sh = static_cast<HostId>(s);
        if (!entry.has(sh) || (live_only && !hostAlive_[sh]))
            continue;
        lat += hosts_[sh].link->transfer(LinkDir::toHost, CxlFlits::header,
                                         now);
        auto ev = hosts_[sh].caches->invalidateLine(line);
        if (ev && ev->dirty) {
            writeBack(sh, line, ev->data, now);
        } else {
            hosts_[sh].link->transfer(LinkDir::toDevice, CxlFlits::header,
                                      now);
        }
    }
    return lat;
}

void
MultiHostSystem::releaseSharer(LineAddr line, HostId h)
{
    if (DirEntry *entry = deviceDir_.lookup(line)) {
        entry->remove(h);
        if (entry->sharers == 0)
            deviceDir_.deallocate(line);
    }
}

Cycles
MultiHostSystem::readLocalFrame(HostId owner, PageFrame page, unsigned li,
                                Cycles now, std::uint64_t &data)
{
    const PhysAddr lpa = pipm_->localLineAddr(owner, page, li);
    data = mem_.read(lineOf(lpa));
    return hosts_[owner].dram->access(lpa - cfg_.localBase(owner), now,
                                      false);
}

void
MultiHostSystem::writeLocalFrame(HostId owner, PageFrame page, unsigned li,
                                 std::uint64_t data, Cycles now)
{
    const PhysAddr lpa = pipm_->localLineAddr(owner, page, li);
    mem_.write(lineOf(lpa), data);
    hosts_[owner].dram->access(lpa - cfg_.localBase(owner), now, true);
}

HostId
MultiHostSystem::naiveBitHost(PageFrame page, unsigned li) const
{
    const HostId bit_host =
        naiveCoherence_ ? pipm_->migratedHostOf(page) : invalidHost;
    return bit_host != invalidHost && pipm_->lineMigrated(bit_host, page, li)
               ? bit_host
               : invalidHost;
}

HostId
MultiHostSystem::writeHome(LineAddr line, std::uint64_t data, Cycles now)
{
    // Naive coherence keeps the bit set, so reads are redirected to the
    // line's local frame at the bit host; the data must land there. A
    // dead bit host's frame is gone: the data lands at the home, and
    // that host's reclaim sweep accounts the line.
    const PageFrame page = pageOfLine(line);
    const auto li = static_cast<unsigned>(line & (linesPerPage - 1));
    const HostId bit_host = naiveBitHost(page, li);
    if (bit_host != invalidHost && hostAlive_[bit_host]) {
        writeLocalFrame(bit_host, page, li, data, now);
        return bit_host;
    }
    mem_.write(line, data);
    cxlDram_.access(lineBase(line) - cfg_.cxlBase(), now, true);
    return invalidHost;
}

void
MultiHostSystem::writeBack(HostId from, LineAddr line, std::uint64_t data,
                           Cycles now)
{
    hosts_[from].link->transfer(LinkDir::toDevice, CxlFlits::data, now);
    if (const HostId bit_host = writeHome(line, data, now);
        bit_host != invalidHost && bit_host != from)
        hosts_[bit_host].link->transfer(LinkDir::toHost, CxlFlits::data, now);
}

Cycles
MultiHostSystem::cxlAccess(const LineAccess &a, std::uint64_t shared_idx)
{
    if (const auto hit = cacheHit(a))
        return *hit;

    // ---- LLC miss --------------------------------------------------------
    sharedLlcMisses.inc();
    if (osPolicy_)
        osPolicy_->recordAccess(shared_idx, a.h);

    const CacheHierarchy &hier = *hosts_[a.h].caches;
    Cycles lat = hier.l1RoundTrip() + hier.llcRoundTrip() +
                 cfg_.localDirectory.roundTrip;

    if (metaFaults_) {
        // §12: the miss consults remap and directory metadata below, and
        // the device validates every metadata read against its shadow
        // checksum — so a demand access that trips over a quarantined
        // entry pays the repair (or the degraded fallback) here, on the
        // critical path.
        lat += metaGuardPage(a.page, a.now);
        lat += resolveDirCorruption(a.line, a.now);
    }

    if (pipm_) {
        // §4.3.3: every LLC miss to CXL-DSM resolves the full local
        // coherence state (I vs I') through the local remapping table.
        lat += localRemapLookup(a.h, a.page, a.now);
        if (!naiveCoherence_ && pipm_->lineMigrated(a.h, a.page, a.li))
            return localRefill(a, lat);
        if (pipm_->hasLocalEntry(a.h, a.page)) {
            // Local access to a not-yet-migrated line of an owned page
            // still counts toward the local counter (§4.2 step 4).
            pipm_->localOwnerAccess(a.h, a.page);
        }
    }

    // ---- To the device ----------------------------------------------------
    lat += hosts_[a.h].link->transfer(LinkDir::toDevice, CxlFlits::header,
                                      a.now);
    lat += deviceDir_.accessLatency(a.line, a.now);
    if (pipm_)
        deviceVote(a.h, a.page, a.now);

    DirEntry *entry = ownerCheckedEntry(a, lat);
    if (entry && entry->state == DevState::M)
        return ownerForward(a, *entry, lat);
    if (entry && entry->state == DevState::S)
        return sharedLineMiss(a, *entry, lat);

    // ---- Device state I ---------------------------------------------------
    HostId mh = pipm_ ? pipm_->migratedHostOf(a.page) : invalidHost;
    if (detection_ && mh != invalidHost && mh != a.h &&
        pipm_->lineMigrated(mh, a.page, a.li)) {
        // The pull-back below needs the migrated-to host to answer. If
        // it never does, suspicion reintegrates the page to its CXL home
        // and the access falls through to the plain path.
        const TxnAwait aw = awaitHost(mh, a.now, true);
        lat += aw.latency;
        if (!aw.ok)
            mh = pipm_->migratedHostOf(a.page);
    }
    if (mh != invalidHost && pipm_->lineMigrated(mh, a.page, a.li)) {
        if (naiveCoherence_)
            return naiveRedirect(a, mh, lat);
        if (mh != a.h)
            return pullBack(a, mh, lat);
    }
    return cxlMemoryMiss(a, lat);
}

void
MultiHostSystem::deviceVote(HostId h, PageFrame page, Cycles now)
{
    // Majority vote: device-visible accesses update the global remapping
    // entry. The update itself is off the critical path (the global
    // table is only *waited on* when forwarding). Under migration
    // backoff (link error rate too high) the vote still counts but a
    // firing is suppressed until the link is healthy. A page group whose
    // metadata circuit breaker is open (§12: sustained corruption/repair
    // activity) likewise sheds the migration while demand traffic keeps
    // flowing.
    const bool allow =
        !faults_ || (!faults_->migrationsSuspended(now) &&
                     !faults_->migrationShed(page, now));
    const VoteOutcome vote = pipm_->deviceAccess(page, h, allow);
    if (vote.suppressed && faults_)
        faults_->migrationsDeferred.inc();
    if (vote.suppressed)
        traceEvent(ObsEventType::promotionSuppressed, now, page, h);
    if (!vote.promoted)
        return;
    const HostId to = vote.promotedTo;
    if (detection_ && !hostAlive_[to]) {
        // Votes cast before the winner was fenced can still fire (oracle
        // mode clears them synchronously at the crash; the detector
        // cannot). Roll the setup back like an aborted promotion — no
        // line has migrated yet.
        faults_->promotionAborts.inc();
    } else if (faults_ && faults_->abortPromotion()) {
        // The promotion setup (frame allocation + table install) was
        // interrupted mid-flight: roll everything back. No line has
        // migrated yet, so the rollback restores the exact pre-vote
        // state; the aborted setup still costs two header round-trips on
        // the would-be owner's link.
        hosts_[to].link->transfer(LinkDir::toHost, CxlFlits::header, now);
        hosts_[to].link->transfer(LinkDir::toDevice, CxlFlits::header, now);
    } else {
        if (hosts_[to].localRemap)
            hosts_[to].localRemap->invalidate(page);
        traceEvent(ObsEventType::promotion, now, page, to);
        return;
    }
    pipm_->abortPromotion(to, page);
    traceEvent(ObsEventType::promotionAbort, now, page, to);
}

DirEntry *
MultiHostSystem::ownerCheckedEntry(const LineAccess &a, Cycles &lat)
{
    DirEntry *entry = deviceDir_.lookup(a.line);
    if (!entry || entry->state != DevState::M)
        return entry;

    if (detection_) {
        // The forward needs the owner to answer. A dead or fenced owner
        // never will: the timeout/retry engine burns its budget, the
        // owner is suspected and its state reclaimed (including this
        // entry), and the access restarts against the swept directory.
        const HostId fwd_owner = entry->owner(cfg_.numHosts);
        if (fwd_owner != invalidHost && fwd_owner != a.h) {
            const TxnAwait aw = awaitHost(fwd_owner, a.now, true);
            lat += aw.latency;
            if (!aw.ok) {
                entry = deviceDir_.lookup(a.line);
                if (!entry || entry->state != DevState::M)
                    return entry;
            }
        }
    }

    // Epoch check (DESIGN.md §8): an entry stamped under an epoch its
    // owner no longer runs in is a stale in-flight reference — the owner
    // crashed (and possibly rejoined cold) since the entry went M. The
    // crash sweep removes such entries eagerly, so this is a backstop
    // for references raced in between; the device drops the entry and
    // serves its own copy.
    const HostId mo = entry->owner(cfg_.numHosts);
    if (mo == invalidHost || entry->ownerEpoch != hostEpoch_[mo]) {
        deviceDir_.deallocate(a.line);
        if (faults_)
            faults_->staleEpochDrops.inc();
        return nullptr;
    }
    return entry;
}

Cycles
MultiHostSystem::localRefill(const LineAccess &a, Cycles lat)
{
    // Case 3: I' -> ME. Served entirely from local DRAM. (The naive
    // §4.3.1 design cannot short-circuit here: it must consult the
    // device directory first — Fig. 8 — so it takes the device flow.)
    std::uint64_t data;
    lat += readLocalFrame(a.h, a.page, a.li, a.now, data);
    pipm_->localOwnerAccess(a.h, a.page);
    fill(a, HostState::ME, false, data);
    noteLocalServedMiss(lat);
    return lat;
}

Cycles
MultiHostSystem::ownerForward(const LineAccess &a, DirEntry &entry,
                              Cycles lat)
{
    // Another host owns the latest copy: forward (Fig. 2 steps 3-5).
    const HostId owner = entry.owner(cfg_.numHosts);
    panic_if(owner == a.h, "directory owner is the requester itself");
    CacheHierarchy &ohier = *hosts_[owner].caches;
    panic_if(ohier.stateOf(a.line) != HostState::M,
             "directory M but owner does not cache line in M");

    lat += hosts_[owner].link->transfer(LinkDir::toHost, CxlFlits::header,
                                        a.now);
    lat += cfg_.localDirectory.roundTrip + ohier.llcRoundTrip();
    const std::uint64_t data = ohier.dataOf(a.line);
    if (a.isWrite) {
        ohier.invalidateLine(a.line);
        grantExclusive(entry, a.line, a.h, a.now);
    } else {
        ohier.setState(a.line, HostState::S);
        ohier.markClean(a.line);
        // The downgrade writes the latest data back to memory.
        writeHome(a.line, data, a.now);
        noteDirState(a.line, DevState::M, DevState::S, a.h, a.now);
        entry.state = DevState::S;
        entry.add(a.h);
    }
    lat += hosts_[owner].link->transfer(LinkDir::toDevice, CxlFlits::data,
                                        a.now);
    lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::data, a.now);
    fill(a, a.isWrite ? HostState::M : HostState::S, a.isWrite, data);
    noteInterHostMiss(lat);
    return lat;
}

Cycles
MultiHostSystem::sharedLineMiss(const LineAccess &a, DirEntry &entry,
                                Cycles lat)
{
    // A read joins the sharers; a write invalidates every other sharer
    // and takes the line exclusive. Either way the memory copy serves.
    if (a.isWrite)
        lat += invalidateSharers(entry, a.line, a.h, a.now);
    lat += cxlDram_.access(a.pa - cfg_.cxlBase(), a.now, false);
    std::uint64_t data;
    if (const HostId bit_host = naiveBitHost(a.page, a.li);
        bit_host != invalidHost) {
        // Naive redirect: the bit says the memory copy lives in
        // bit_host's local DRAM (extra hops, Fig. 8).
        lat += hosts_[bit_host].link->transfer(LinkDir::toHost,
                                               CxlFlits::header, a.now);
        lat += readLocalFrame(bit_host, a.page, a.li, a.now, data);
        lat += hosts_[bit_host].link->transfer(LinkDir::toDevice,
                                               CxlFlits::data, a.now);
    } else {
        data = mem_.read(a.line);
    }
    if (a.isWrite)
        grantExclusive(entry, a.line, a.h, a.now);
    else
        entry.add(a.h);
    lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::data,
                                      a.now);
    fill(a, a.isWrite ? HostState::M : HostState::S, a.isWrite, data);
    noteCxlServedMiss(lat);
    return lat;
}

Cycles
MultiHostSystem::naiveRedirect(const LineAccess &a, HostId mh, Cycles lat)
{
    // Naive coherence (Fig. 8): the directory yielded nothing, so the
    // device examines the in-memory bit (a CXL memory read) and
    // redirects the request to the bit owner's local DRAM. The bit stays
    // set — no incremental migration exists in this design — and even
    // the owner itself pays the full device round trip, which is
    // precisely the inefficiency §4.3.1 identifies.
    lat += cxlDram_.access(a.pa - cfg_.cxlBase(), a.now, false);
    std::uint64_t data;
    if (mh == a.h) {
        // Redirect back to the requester's own local memory.
        lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::header,
                                          a.now);
        lat += readLocalFrame(a.h, a.page, a.li, a.now, data);
        pipm_->localOwnerAccess(a.h, a.page);
    } else {
        const PhysAddr lpa = pipm_->localLineAddr(mh, a.page, a.li);
        lat += globalRemapLookup(a.page, a.now);
        lat += hosts_[mh].link->transfer(LinkDir::toHost, CxlFlits::header,
                                         a.now);
        lat += hosts_[mh].dram->access(lpa - cfg_.localBase(mh), a.now,
                                       !a.isWrite);
        data = a.isWrite ? a.wdata : mem_.read(lineOf(lpa));
        lat += hosts_[mh].link->transfer(LinkDir::toDevice, CxlFlits::data,
                                         a.now);
        lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::data,
                                          a.now);
    }
    const InterHostOutcome ih = mh == a.h
                                    ? InterHostOutcome{}
                                    : pipm_->interHostAccess(mh, a.page);
    dirAllocate(a.line, exclusiveEntry(a.h), a.now);
    fill(a, HostState::M, a.isWrite, data);
    if (ih.revoked)
        performRevocation(mh, a.page, a.now);
    if (mh == a.h)
        noteLocalServedMiss(lat);
    else
        noteInterHostMiss(lat);
    return lat;
}

Cycles
MultiHostSystem::pullBack(const LineAccess &a, HostId mh, Cycles lat)
{
    // Cases 2/5/6: inter-host access to a line migrated into host mh.
    lat += globalRemapLookup(a.page, a.now);
    // The device reads CXL memory to verify the I' in-memory bit.
    lat += cxlDram_.access(a.pa - cfg_.cxlBase(), a.now, false);
    lat += hosts_[mh].link->transfer(LinkDir::toHost, CxlFlits::header,
                                     a.now);

    CacheHierarchy &ohier = *hosts_[mh].caches;
    lat += cfg_.localDirectory.roundTrip;
    std::uint64_t data;
    const HostState owner_state = ohier.stateOf(a.line);
    bool owner_keeps_s = false;
    if (owner_state == HostState::ME) {
        // Cases 5 (write) and 6 (read).
        lat += ohier.llcRoundTrip();
        data = ohier.dataOf(a.line);
        if (a.isWrite) {
            ohier.invalidateLine(a.line);
        } else {
            ohier.setState(a.line, HostState::S);
            ohier.markClean(a.line);
            owner_keeps_s = true;
        }
    } else {
        // Case 2: I' uncached; read the owner's local DRAM copy.
        panic_if(owner_state != HostState::I,
                 "migrated line cached in unexpected state ",
                 toString(owner_state));
        lat += readLocalFrame(mh, a.page, a.li, a.now, data);
    }

    // Migrate the line back: clear both in-memory bits and write the
    // data to its CXL home (asynchronous writeback).
    pipm_->clearLineMigrated(mh, a.page, a.li);
    mem_.write(a.line, data);
    cxlDram_.access(a.pa - cfg_.cxlBase(), a.now, true);

    lat += hosts_[mh].link->transfer(LinkDir::toDevice, CxlFlits::data,
                                     a.now);

    // Local-counter decrement; revoke the whole page at zero.
    const InterHostOutcome ih = pipm_->interHostAccess(mh, a.page);

    DirEntry ne = exclusiveEntry(a.h);
    if (owner_keeps_s) {
        ne.state = DevState::S;
        ne.add(mh);
    }
    dirAllocate(a.line, ne, a.now);

    lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::data, a.now);
    fill(a, owner_keeps_s ? HostState::S : HostState::M, a.isWrite, data);

    if (ih.revoked)
        performRevocation(mh, a.page, a.now);

    noteInterHostMiss(lat);
    return lat;
}

Cycles
MultiHostSystem::cxlMemoryMiss(const LineAccess &a, Cycles lat)
{
    // Plain CXL memory access (Fig. 2 step 7). The PIPM in-memory bit
    // travels with the data, costing nothing extra.
    lat += cxlDram_.access(a.pa - cfg_.cxlBase(), a.now, false);
    if (faults_) {
        // Every first access to an uncached CXL line comes through this
        // path, so it is the single place the device's ECC surfaces
        // poison. A transient error is cured by one on-device scrubbing
        // retry; persistent poison demotes the line to an uncacheable
        // degraded path forever (it never fills a cache and never gets a
        // directory entry, so this path is re-taken on every access).
        const bool known_poisoned =
            trace_ && faults_->linePersistentlyPoisoned(a.line);
        switch (faults_->poisonCheck(a.line)) {
          case PoisonState::transientPoison:
            traceEvent(ObsEventType::poisonTransient, a.now, a.line, a.h);
            lat += cxlDram_.access(a.pa - cfg_.cxlBase(), a.now + lat, false);
            break;
          case PoisonState::persistentPoison:
            if (!known_poisoned)
                traceEvent(ObsEventType::poisonPersistent, a.now, a.line, a.h);
            lat += degradedLineAccess(a);
            noteCxlServedMiss(lat);
            return lat;
          case PoisonState::clean:
            break;
        }
    }
    const std::uint64_t data = mem_.read(a.line);
    lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::data, a.now);
    // MESI-style exclusive grant: no other sharer, so the line fills
    // writable (M, possibly clean) — this is what makes read-mostly lines
    // eligible for incremental migration on eviction (case 1).
    dirAllocate(a.line, exclusiveEntry(a.h), a.now);
    fill(a, HostState::M, a.isWrite, data);
    noteCxlServedMiss(lat);
    return lat;
}

Cycles
MultiHostSystem::degradedLineAccess(const LineAccess &a)
{
    faults_->degradedAccesses.inc();
    Cycles lat = 0;
    // The device NAKs the cacheable request with a poison indication...
    lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::header,
                                      a.now);
    // ...and the host retries uncacheably: request (with write data) out,
    // scrubbed DRAM access on the device, data (or completion) back.
    lat += hosts_[a.h].link->transfer(LinkDir::toDevice,
                                      a.isWrite ? CxlFlits::data
                                                : CxlFlits::header,
                                      a.now + lat);
    lat += cxlDram_.access(a.pa - cfg_.cxlBase(), a.now + lat, a.isWrite);
    if (a.isWrite) {
        // Uncacheable writes go straight through to memory.
        mem_.write(a.line, a.wdata);
        lat += hosts_[a.h].link->transfer(LinkDir::toHost,
                                          CxlFlits::header, a.now + lat);
    } else {
        *a.rdata = mem_.read(a.line);
        lat += hosts_[a.h].link->transfer(LinkDir::toHost, CxlFlits::data,
                                          a.now + lat);
    }
    return lat;
}

void
MultiHostSystem::performRevocation(HostId owner, PageFrame page, Cycles now)
{
    if (metaFaults_) {
        // §12: revocation rewrites the page's migration metadata; the
        // device validates it first. Resolution may force-reclaim the
        // page (unrepairable, journal overwritten), in which case the
        // revocation has nothing left to do.
        metaGuardPage(page, now);
        if (!pipm_->hasLocalEntry(owner, page))
            return;
    }
    // Collect the local frame before the entry disappears.
    panic_if(!pipm_->hasLocalEntry(owner, page),
             "revocation of page without local entry");
    CacheHierarchy &ohier = *hosts_[owner].caches;

    // First pull any ME-cached lines of the page back through the cache.
    // Under naive coherence cached copies are ordinary M/S lines tracked
    // by the directory; the local frame is the memory copy, so only it
    // moves (a dirty cached copy will write back through the normal,
    // now-unredirected path later).
    const PhysAddr base = pageBase(page);
    for (unsigned li = 0; li < linesPerPage; ++li) {
        if (!pipm_->lineMigrated(owner, page, li))
            continue;
        const LineAddr line = lineOf(base + li * lineBytes);
        std::optional<CacheHierarchy::Eviction> ev;
        if (!naiveCoherence_)
            ev = ohier.invalidateLine(line);
        std::uint64_t data;
        if (ev)
            data = ev->data;
        else
            readLocalFrame(owner, page, li, now, data);
        mem_.write(line, data);
        hosts_[owner].link->transfer(LinkDir::toDevice, CxlFlits::data,
                                     now);
        cxlDram_.access(lineBase(line) - cfg_.cxlBase(), now, true);
    }
    const std::uint64_t back = pipm_->revoke(owner, page);
    traceEvent(ObsEventType::revocation, now, page, owner,
               static_cast<std::uint32_t>(std::popcount(back)));
    if (hosts_[owner].localRemap)
        hosts_[owner].localRemap->invalidate(page);
    if (globalRemap_)
        globalRemap_->invalidate(page);
}

void
MultiHostSystem::handleEviction(HostId h,
                                const CacheHierarchy::Eviction &ev,
                                Cycles now)
{
    const PhysAddr pa = lineBase(ev.line);

    if (scheme_ == Scheme::localOnly ||
        cfg_.regionOf(pa) == AddrRegion::hostLocal) {
        // Private data, a GIM page owned by this host, or any line of
        // the Local-only ideal: only host h's DRAM is involved.
        if (ev.dirty) {
            mem_.write(ev.line, ev.data);
            hosts_[h].dram->access(hostDramOffset(h, pa), now, true);
        }
        return;
    }

    // CXL-DSM line.
    const PageFrame page = pageOf(pa);
    const unsigned li = lineInPage(pa);

    if (metaFaults_) {
        // §12: the eviction notifies (and possibly updates) the line's
        // directory entry; the device validates it first. Evictions are
        // off the demand critical path, so the repair latency is not
        // charged to anyone.
        resolveDirCorruption(ev.line, now);
    }

    if (ev.state == HostState::ME) {
        // Case 4: ME -> I'. Only a local writeback if dirty; no device
        // traffic at all.
        if (ev.dirty)
            writeLocalFrame(h, page, li, ev.data, now);
        return;
    }

    if (pipm_ && ev.state == HostState::M &&
        pipm_->migratedHostOf(page) == h &&
        !pipm_->lineMigrated(h, page, li) &&
        !(metaFaults_ && faults_->linePersistentlyPoisoned(ev.line))) {
        // (The poison check above only exists in the §12 metadata fault
        // domain: the guard may have just degraded this very line, and a
        // poisoned line must never migrate — it is served uncacheably
        // forever. Gating on metaFaults_ keeps the abort-draw position,
        // and thus the fault RNG stream, identical in every other
        // configuration.)
        // The abort draw happens exactly when the old short-circuit drew
        // it (after the three eligibility checks), so adding the trace
        // hook does not shift the fault RNG stream.
        if (faults_ && faults_->abortLineMigration()) {
            traceEvent(ObsEventType::lineAbort, now, ev.line, h, li);
            // Fall through to the normal eviction path: the safe
            // completion of an aborted case-1 migration is the ordinary
            // writeback to CXL memory.
        } else {
            // Case 1: incremental migration on local writeback. The data
            // is written to the page's local frame instead of CXL memory;
            // both in-memory bits flip and the device directory entry is
            // released.
            pipm_->setLineMigrated(h, page, li);
            writeLocalFrame(h, page, li, ev.data, now);
            // The directory-release message doubles as the bit-flip
            // notification; the CXL-side in-memory bit lives in ECC spare
            // bits and is folded into the device's metadata handling
            // (§4.3.1 footnote) — no data transfer, per §4.1.
            hosts_[h].link->transfer(LinkDir::toDevice, CxlFlits::header,
                                     now);
            deviceDir_.deallocate(ev.line);
            return;
        }
    }

    // Normal eviction: dirty data (M) is written back (under naive
    // coherence to the bit host's local frame); clean lines just notify
    // the directory. An aborted case-1 line migration also lands here:
    // the bit-flip never happened, so the safe completion is the
    // ordinary writeback to CXL memory — neither copy is lost and no bit
    // is left half-set.
    if (ev.state == HostState::M && ev.dirty) {
        writeBack(h, ev.line, ev.data, now);
    } else {
        hosts_[h].link->transfer(LinkDir::toDevice, CxlFlits::header, now);
    }
    releaseSharer(ev.line, h);
}

void
MultiHostSystem::tickSlow(Cycles now)
{
    if (faults_)
        processCrashEvents(now);
    if (metaFaults_) {
        while (const MetaCorruptEvent *ev = faults_->nextMetaCorruptEvent(now))
            applyMetaCorruption(*ev, now);
        if (now >= nextMetaScrub_) {
            runMetaScrub(now, cfg_.fault.metaScrubBudget);
            advanceDeadline(nextMetaScrub_, metaScrubInterval_, now);
        }
        faults_->advanceBreakers(now);
    }
    if (detection_)
        advanceLeases(now);
    if (osPolicy_ && now >= nextEpoch_) {
        runEpoch(now);
        advanceDeadline(nextEpoch_, cfg_.osEpochCycles(), now);
    }
    recomputeEventHorizon();
}

void
MultiHostSystem::recomputeEventHorizon()
{
    Cycles next = maxCycles;
    if (faults_)
        next = std::min(next, faults_->nextCrashEventAt());
    if (metaFaults_) {
        next = std::min(next, faults_->nextMetaCorruptEventAt());
        next = std::min(next, nextMetaScrub_);
        next = std::min(next, faults_->nextBreakerEventAt());
    }
    if (detection_) {
        for (unsigned i = 0; i < cfg_.numHosts; ++i) {
            const auto h = static_cast<HostId>(i);
            // Every heartbeat grid point must be a horizon point even
            // though most renewals are silent: delivering one late —
            // past a crash that kills the sender — would renew a lease
            // the un-elided simulation lets expire.
            next = std::min(next, nextHeartbeat_[h]);
            if (trusted_[h])
                next = std::min(next,
                                lastHeartbeat_[h] + leaseCycles_ + 1);
            if (zombieReadmitAt_[h])
                next = std::min(next, zombieReadmitAt_[h]);
        }
    }
    if (osPolicy_)
        next = std::min(next, nextEpoch_);
    nextEventCycle_ = next;
}

void
MultiHostSystem::processCrashEvents(Cycles now)
{
    while (const CrashEvent *ev = faults_->nextCrashEvent(now)) {
        // The detector can change liveness out from under the schedule:
        // a false suspicion fences (kills) a host before its scheduled
        // crash, and a fenced zombie readmits before its scheduled
        // rejoin. Under the detector, scheduled events that no longer
        // apply are dropped; in oracle mode they panic.
        const bool alive = hostAlive_[ev->host];
        if (ev->rejoin && (!detection_ || !alive))
            rejoinHost(ev->host, now);
        else if (!ev->rejoin && (!detection_ || alive))
            crashHost(ev->host, now, ev->downUntil);
    }
}

void
MultiHostSystem::suspectHost(HostId h, Cycles now)
{
    panic_if(!detection_, "suspectHost requires the lease detector "
             "(fault.leaseNs > 0)");
    panic_if(h >= cfg_.numHosts, "suspectHost: host id out of range");
    if (!markSuspected(h, now))
        return;   // already suspected; reclaim ran (or is this call's)

    if (hostAlive_[h]) {
        // False suspicion (gray failure): the host is alive — merely
        // stalled or unlucky — but the device cannot tell. Fence it:
        // bump its epoch so in-flight requests NACK at the directory,
        // and treat its volatile state exactly like a crash. The zombie
        // discovers the fence when its next request is rejected and
        // readmits through cold rejoin after the readmit delay.
        faults_->falseSuspicions.inc();
        traceEvent(ObsEventType::hostFenced, now, 0, h, hostEpoch_[h]);
        const Cycles back =
            std::max(now, faults_->stallUntil(h, now)) + readmitCycles_;
        zombieReadmitAt_[h] = back;
        killHost(h, back);
        reclaimHost(h, now);
    } else if (needsReclaim_[h]) {
        // Real crash finally detected: run the deferred reclamation.
        reclaimHost(h, now);
    }
    // Reachable from access() via the retry engine, not just from
    // tickSlow(): the lease/readmit state just re-armed.
    invalidateEventHorizon();
    checkInvariants();
}

bool
MultiHostSystem::markSuspected(HostId h, Cycles now)
{
    if (!trusted_[h])
        return false;
    trusted_[h] = 0;
    faults_->suspicions.inc();
    traceEvent(ObsEventType::hostSuspected, now, 0, h, hostEpoch_[h]);
    return true;
}

void
MultiHostSystem::advanceLeases(Cycles now)
{
    for (unsigned i = 0; i < cfg_.numHosts; ++i) {
        const auto h = static_cast<HostId>(i);
        // Deliver every heartbeat grid point that has fallen due. A dead
        // host renews nothing; a stalled host's renewal is swallowed by
        // the stall window (that is what makes gray failures visible).
        while (nextHeartbeat_[h] <= now) {
            const Cycles t = nextHeartbeat_[h];
            nextHeartbeat_[h] += heartbeatCycles_;
            if (hostAlive_[h] && faults_->stallUntil(h, t) == 0)
                lastHeartbeat_[h] = t;
        }
        if (trusted_[h] && now > lastHeartbeat_[h] + leaseCycles_)
            suspectHost(h, now);
        if (zombieReadmitAt_[h] && now >= zombieReadmitAt_[h]) {
            // The zombie's first post-stall request hits the epoch fence
            // and is NACKed; it then rejoins cold.
            faults_->fencedRequests.inc();
            traceEvent(ObsEventType::fencedRequest, now, 0, h, hostEpoch_[h]);
            rejoinHost(h, now);
        }
    }
}

Cycles
MultiHostSystem::respondsAt(HostId t, Cycles now) const
{
    if (!hostAlive_[t])
        return maxCycles;
    const Cycles su = faults_->stallUntil(t, now);
    return su > now ? su : now;
}

TxnAwait
MultiHostSystem::awaitHost(HostId t, Cycles now, bool suspect_on_fail)
{
    if (!detection_)
        return {};
    const Cycles r = respondsAt(t, now);
    if (r <= now)
        return {};
    TxnAwait aw = hosts_[t].link->awaitResponse(
        now, r, (static_cast<std::uint64_t>(t) << 48) ^ now);
    if (!aw.ok) {
        faults_->txnAbandoned.inc();
        if (suspect_on_fail)
            suspectHost(t, now + aw.latency);
    }
    return aw;
}

Cycles
MultiHostSystem::hostStalledUntil(HostId h, Cycles now) const
{
    if (!detection_ || !hostAlive_[h])
        return 0;
    return faults_->stallUntilAt(h, now);
}

bool
MultiHostSystem::hostResponsive(HostId h, Cycles now) const
{
    return hostAlive_[h] && hostStalledUntil(h, now) == 0;
}

void
MultiHostSystem::crashHost(HostId h, Cycles now, Cycles down_until)
{
    panic_if(!faults_, "host crashes require fault injection enabled");
    panic_if(h >= cfg_.numHosts, "crashHost: host id out of range");
    panic_if(!hostAlive_[h], "crashHost: host ", int(h), " already dead");

    traceEvent(ObsEventType::hostCrash, now, 0, h, hostEpoch_[h]);
    killHost(h, down_until);

    if (!detection_) {
        // Oracle mode (DESIGN.md §8): the device learns of the crash
        // instantly and reclaims synchronously.
        reclaimHost(h, now);
    } else {
        // Lease mode (DESIGN.md §11): the device only learns when the
        // lease expires (or a transaction retry budget runs out). Until
        // then the dead host's directory/remap/GIM state lingers and
        // in-flight traffic runs against it.
        needsReclaim_[h] = 1;
    }
    invalidateEventHorizon();   // tests crash hosts outside tickSlow()
    checkInvariants();
}

void
MultiHostSystem::killHost(HostId h, Cycles down_until)
{
    faults_->hostCrashes.inc();
    hostAlive_[h] = 0;
    ++hostEpoch_[h];
    hostDownUntil_[h] = down_until;
    // The dead host's volatile state vanishes.
    flushHostVolatile(h);
}

void
MultiHostSystem::flushHostVolatile(HostId h)
{
    // Dirty cached lines are remembered (keyed by home line address) only
    // to decide lost-ness in the reclaim sweep; the data itself is gone.
    // Overwrite semantics: if a line is somehow captured twice (dirty at
    // two cache levels, or re-captured before the deferred §11 sweep
    // runs), the later capture is the newer value — emplace would
    // silently keep the stale one and mis-account the loss.
    auto &dirty = pendingDirty_[h];
    for (const auto &ev : hosts_[h].caches->flushAll()) {
        if (ev.dirty)
            dirty.insert_or_assign(ev.line, ev.data);
    }
    for (Tlb &t : hosts_[h].tlbs)
        t.flushAll();
    if (hosts_[h].localRemap)
        hosts_[h].localRemap->clear();
    std::fill(hosts_[h].pendingStall.begin(), hosts_[h].pendingStall.end(),
              static_cast<Cycles>(0));
}

void
MultiHostSystem::reclaimHost(HostId h, Cycles now)
{
    Cycles recovery = 0;

    // §12: the sweep below trusts directory and remap metadata, so every
    // outstanding corruption must be resolved (repaired or degraded)
    // before the reclaim reads a single entry.
    if (metaFaults_)
        runMetaScrub(now, std::numeric_limits<unsigned>::max());

    // Loss accounting is against the last device-visible value: a line is
    // *lost* when the most recent value (dead cache dirty copy or dead
    // local-DRAM frame copy) differs from what the device can still serve.
    // Each line is recorded at most once per reclaim; under the poison
    // recovery policy lost lines additionally become persistently poisoned
    // (uncacheable degraded path) instead of silently serving stale data.
    FlatSet<LineAddr> lost_this_crash;
    auto record_lost = [&](LineAddr line) {
        if (!lost_this_crash.insert(line))
            return;
        noteLostLine(line);
    };

    FlatMap<LineAddr, std::uint64_t> &latest = pendingDirty_[h];

    // ---- 2. Directory sweep --------------------------------------------
    // Reclaim every entry whose sharer mask includes the dead host: S
    // sharers are downgraded (clean, nothing lost); dead-owned M entries
    // are dropped — the device copy becomes authoritative, and a dirty
    // cached value that never made it back is counted lost.
    std::vector<std::pair<LineAddr, DirEntry>> touched;
    deviceDir_.forEach([&](LineAddr line, const DirEntry &e) {
        if (e.has(h))
            touched.emplace_back(line, e);
    });
    for (const auto &[line, snap] : touched) {
        recovery += deviceDir_.accessLatency(line, now);
        faults_->crashDirSwept.inc();
        if (snap.state == DevState::M) {
            assert(snap.owner(cfg_.numHosts) == h);
            deviceDir_.deallocate(line);
            const auto lit = latest.find(line);
            if (lit != latest.end() && lit->second != mem_.read(line))
                record_lost(line);
        } else {
            releaseSharer(line, h);
        }
    }

    // ---- 3. Remap-state recovery (partially migrated pages) ------------
    if (pipm_) {
        // FlatMap iteration is probe order; sort for deterministic sweeps.
        const std::vector<PageFrame> pages =
            pipm_->localEntries(h).sortedKeys();
        for (const PageFrame page : pages) {
            const LocalRemapEntry entry = pipm_->localEntries(h).at(page);
            if (entry.lineBitmap == 0) {
                // In-flight promotion with no line migrated yet: the
                // existing abort/rollback path restores the exact
                // pre-vote state.
                pipm_->abortPromotion(h, page);
            } else {
                const PhysAddr base = pageBase(page);
                for (unsigned li = 0; li < linesPerPage; ++li) {
                    if (!((entry.lineBitmap >> li) & 1))
                        continue;
                    const LineAddr home = lineOf(base + li * lineBytes);
                    faults_->crashLinesReclaimed.inc();
                    // Clearing the in-memory bit is a device-side
                    // metadata write at the line's home.
                    recovery += cxlDram_.access(
                        lineBase(home) - cfg_.cxlBase(), now, true);
                    const PhysAddr lpa =
                        pipm_->localLineAddr(h, page, li);
                    const DirEntry *de = deviceDir_.probe(home);
                    if (de && de->state == DevState::S) {
                        // Naive coherence: live hosts still hold clean S
                        // copies carrying the last device-visible value
                        // (the home is stale while the bit is set).
                        if (syncHomeFromLiveCopy(*de, home, now, recovery))
                            continue;
                    } else if (de && de->state == DevState::M &&
                               hostAlive_[de->owner(cfg_.numHosts)]) {
                        // Naive coherence: a live owner caches the latest
                        // value in M. Sync it to the home now — a *clean*
                        // eviction later would otherwise drop it silently
                        // (dirty writebacks land at the home anyway once
                        // the bit is cleared). A dead owner (lease mode,
                        // not yet swept) caches nothing: its own sweep
                        // accounts its value, and this page's falls
                        // through to the loss check below.
                        const HostId lo = de->owner(cfg_.numHosts);
                        const std::uint64_t v =
                            hosts_[lo].caches->dataOf(home);
                        if (v != mem_.read(home)) {
                            mem_.write(home, v);
                            recovery += cxlDram_.access(
                                lineBase(home) - cfg_.cxlBase(), now,
                                true);
                        }
                        continue;
                    }
                    // The latest value lived only with the dead host: its
                    // dirty cached copy if there was one, else its local
                    // DRAM frame copy. The home keeps serving its stale
                    // copy; count the loss if the values differ.
                    const auto cit = latest.find(home);
                    const std::uint64_t v = cit != latest.end()
                                                ? cit->second
                                                : mem_.read(lineOf(lpa));
                    if (v != mem_.read(home))
                        record_lost(home);
                }
                pipm_->crashReclaimPage(h, page);
            }
            faults_->crashPagesReclaimed.inc();
            invalidateRemapCaches(page);
            recovery += cfg_.pipm.globalCacheRoundTrip;
        }
        // A dead host must not win a pending majority vote.
        pipm_->clearVotesFor(h);
    }

    // ---- 4. OS-migrated (GIM) pages homed at the dead host -------------
    // Demote without a data copy: the local frame is gone, so the page
    // reverts to its (possibly stale) CXL home copy; per-line differences
    // count as losses.
    for (std::uint64_t idx = 0; idx < migratedTo_.size(); ++idx) {
        if (migratedTo_[idx] != h)
            continue;
        const SharedMapping &m = space_->sharedMapping(idx);
        const PageFrame cur = m.frame;
        const PageFrame home_f = m.cxlFrame;
        for (unsigned li = 0; li < linesPerPage; ++li) {
            const LineAddr cline = lineOf(pageBase(cur) + li * lineBytes);
            const LineAddr home =
                lineOf(pageBase(home_f) + li * lineBytes);
            faults_->crashLinesReclaimed.inc();
            const auto cit = latest.find(cline);
            const std::uint64_t v =
                cit != latest.end() ? cit->second : mem_.read(cline);
            if (v != mem_.read(home))
                record_lost(home);
        }
        space_->demoteSharedToCxl(idx);
        migratedTo_[idx] = invalidHost;
        faults_->crashPagesReclaimed.inc();
        recovery += cxlDram_.access(pageBase(home_f) - cfg_.cxlBase(), now,
                                    true);
        for (unsigned s = 0; s < cfg_.numHosts; ++s) {
            if (s == h)
                continue;
            for (Tlb &t : hosts_[s].tlbs)
                t.shootdown(idx);
        }
        if (harmful_)
            harmful_->onDemotion(idx);
    }

    latest.clear();
    if (detection_)
        needsReclaim_[h] = 0;
    faults_->crashRecoveryCycles.inc(recovery);
}

bool
MultiHostSystem::syncHomeFromLiveCopy(const DirEntry &de, LineAddr home,
                                      Cycles now, Cycles &lat)
{
    for (unsigned s = 0; s < cfg_.numHosts; ++s) {
        const auto sh = static_cast<HostId>(s);
        if (!de.has(sh) || !hostAlive_[sh] ||
            hosts_[sh].caches->stateOf(home) == HostState::I)
            continue;
        const std::uint64_t v = hosts_[sh].caches->dataOf(home);
        if (v != mem_.read(home)) {
            mem_.write(home, v);
            lat += hosts_[sh].link->transfer(LinkDir::toDevice,
                                             CxlFlits::data, now);
            lat += cxlDram_.access(lineBase(home) - cfg_.cxlBase(), now,
                                   true);
        }
        return true;
    }
    return false;
}

void
MultiHostSystem::invalidateRemapCaches(PageFrame page)
{
    // Stale remap-cache entries anywhere must go: the page is no longer
    // remapped.
    for (Host &host : hosts_) {
        if (host.localRemap)
            host.localRemap->invalidate(page);
    }
    if (globalRemap_)
        globalRemap_->invalidate(page);
}

void
MultiHostSystem::noteLostLine(LineAddr line)
{
    faults_->crashDirtyLinesLost.inc();
    lostLines_.push_back(line);
    if (cfg_.fault.crashRecovery == CrashRecoveryPolicy::poison)
        faults_->poisonLineForever(line);
}

void
MultiHostSystem::noteDeadOwnedDrop(LineAddr line, const DirEntry &entry)
{
    if (entry.state != DevState::M)
        return;
    const HostId mo = entry.owner(cfg_.numHosts);
    if (mo == invalidHost || hostAlive_[mo])
        return;
    // The entry is about to evaporate outside the reclaim sweep
    // (recall, OS page flush or unrepairable corruption): decide
    // lost-ness now, and forget the pending value so the eventual sweep
    // does not double-count it. Outside a deferred reclaim the dead
    // owner has no pending values, so this is a no-op.
    auto &dirty = pendingDirty_[mo];
    const auto it = dirty.find(line);
    if (it != dirty.end()) {
        if (it->second != mem_.read(line))
            noteLostLine(line);
        dirty.erase(it);
    }
}

// ---- Device-metadata fault domain (DESIGN.md §12) -------------------------

void
MultiHostSystem::applyMetaCorruption(const MetaCorruptEvent &ev, Cycles now)
{
    // Pick a victim among the live metadata words. The event's pick and
    // flip mask were drawn when the schedule was generated, so victim
    // selection never consumes RNG state shared with the other fault
    // streams; an event preferring a target class that has no eligible
    // entry falls through to the other class. Both classes rotate from
    // the pick without listing their entries (DESIGN.md §12).
    using Victim = std::optional<std::pair<HostId, std::uint64_t>>;
    auto try_dir = [&]() -> Victim {
        if (const auto line =
                deviceDir_.corruptFrom(ev.pick, ev.bits, ev.shadowHit))
            return std::pair{invalidHost, *line};
        return std::nullopt;
    };
    auto try_remap = [&]() -> Victim {
        if (!pipm_)
            return std::nullopt;
        return pipm_->corruptLocalFrom(ev.pick, ev.bits, ev.shadowHit);
    };
    Victim victim = ev.remapTarget ? try_remap() : try_dir();
    if (!victim)
        victim = ev.remapTarget ? try_dir() : try_remap();
    if (!victim) {
        faults_->metaCorruptSkipped.inc();
        return;
    }
    faults_->metaCorruptions.inc();
    traceEvent(ObsEventType::metaCorruption, now, victim->second,
               victim->first, ev.shadowHit ? 1 : 0);
}

void
MultiHostSystem::runMetaScrub(Cycles now, unsigned budget)
{
    // One scrub pass: walk the quarantined entries in address order with
    // a per-pass budget. Repairs charge device resources (directory
    // slices, links, DRAM) but are off any demand critical path, so the
    // returned latencies are dropped.
    for (const LineAddr line : deviceDir_.corruptedLines()) {
        if (budget == 0)
            return;
        --budget;
        resolveDirCorruption(line, now);
    }
    if (!pipm_)
        return;
    for (const auto &[eh, ep] : pipm_->corruptedLocalEntries()) {
        if (budget == 0)
            return;
        --budget;
        resolveRemapCorruption(eh, ep, now);
    }
}

Cycles
MultiHostSystem::resolveDirCorruption(LineAddr line, Cycles now)
{
    if (!deviceDir_.entryCorrupted(line))
        return 0;
    const auto *c = deviceDir_.corruptionOf(line);
    faults_->metaScrubChecks.inc();
    faults_->noteMetaRepair(pageOf(lineBase(line)), now);
    // Demand-path repairs can trip or re-arm a breaker
    // between ticks.
    invalidateEventHorizon();
    Cycles lat = deviceDir_.accessLatency(line, now);
    DirEntry *entry = deviceDir_.lookup(line);
    panic_if(!entry, "quarantined directory line has no entry");

    if (!c->shadowHit) {
        // The shadow checksum survived the fault: probe the live sharers
        // and rebuild the entry image in place. One header round trip
        // per sharer, in parallel; the slowest bounds the repair.
        Cycles probe_max = 0;
        for (unsigned s = 0; s < cfg_.numHosts; ++s) {
            const auto sh = static_cast<HostId>(s);
            if (!entry->has(sh) || !hostAlive_[sh])
                continue;
            Cycles rt = hosts_[sh].link->transfer(LinkDir::toHost,
                                                  CxlFlits::header, now);
            rt += hosts_[sh].caches->llcRoundTrip();
            rt += hosts_[sh].link->transfer(LinkDir::toDevice,
                                            CxlFlits::header, now + rt);
            probe_max = std::max(probe_max, rt);
        }
        lat += probe_max;
        deviceDir_.clearCorruption(line);
        faults_->metaScrubRepairs.inc();
        traceEvent(ObsEventType::scrubRepair, now, line, invalidHost);
        return lat;
    }

    // The fault spans the shadow checksum too: the entry can be neither
    // trusted nor rebuilt. Invalidate the line at every live sharer
    // (collecting dirty data), account a dead owner's pending dirty
    // value like any other entry evaporating outside the reclaim sweep,
    // drop the entry and poison the line onto the persistent degraded
    // uncacheable path.
    const PageFrame page = pageOfLine(line);
    const auto li = static_cast<unsigned>(line & (linesPerPage - 1));
    if (const HostId bit_host = naiveBitHost(page, li);
        bit_host != invalidHost && hostAlive_[bit_host]) {
        // Naive coherence keeps the memory copy in the bit owner's local
        // frame, but the degraded path serves the home: move the frame's
        // value there (a dirty cached copy, written back below, is newer
        // still) and clear the bit. A dead owner's frame is gone; its
        // reclaim sweep accounts the line.
        std::uint64_t v;
        readLocalFrame(bit_host, page, li, now, v);
        mem_.write(line, v);
        pipm_->clearLineMigrated(bit_host, page, li);
    }
    lat += recallEntry(line, *entry, true, now);
    deviceDir_.deallocate(line);   // also lifts the quarantine
    faults_->poisonLineForever(line);
    faults_->metaUnrepairable.inc();
    traceEvent(ObsEventType::scrubUnrepairable, now, line, invalidHost);
    return lat;
}

Cycles
MultiHostSystem::resolveRemapCorruption(HostId h, PageFrame page,
                                        Cycles now)
{
    const auto *c = pipm_->corruptionOf(h, page);
    if (!c)
        return 0;
    faults_->metaScrubChecks.inc();
    faults_->noteMetaRepair(page, now);
    invalidateEventHorizon();   // same breaker re-arm as the dir guard
    Cycles lat = cfg_.pipm.globalCacheRoundTrip;

    if (!c->shadowHit) {
        // Checksum intact: one metadata read at the device rebuilds the
        // entry image in place.
        lat += cxlDram_.access(pageBase(page) - cfg_.cxlBase(), now,
                               false);
        pipm_->clearCorruption(h, page);
        faults_->metaScrubRepairs.inc();
        traceEvent(ObsEventType::scrubRepair, now, page, h);
        return lat;
    }

    if (pipm_->journalCovers(h, page)) {
        // The redo journal still holds the page's migration metadata
        // (the in-flight promotion/demotion wrote it): replay it into a
        // consistent remap entry.
        lat += cxlDram_.access(pageBase(page) - cfg_.cxlBase(), now, true);
        pipm_->clearCorruption(h, page);
        faults_->metaJournalReplays.inc();
        traceEvent(ObsEventType::journalReplay, now, page, h);
        return lat;
    }

    // The journal records were already overwritten: the device no longer
    // knows which lines migrated, so the partial-migration state is
    // unrecoverable. Force-reclaim the page exactly like the crash
    // sweep — the home copies become authoritative and per-line
    // differences count as dirty losses.
    const LocalRemapEntry entry = pipm_->localEntries(h).at(page);
    if (entry.lineBitmap == 0) {
        // In-flight promotion with no line migrated yet: the abort path
        // restores the exact pre-vote state (and drops the quarantine).
        pipm_->abortPromotion(h, page);
    } else {
        const PhysAddr base = pageBase(page);
        for (unsigned li = 0; li < linesPerPage; ++li) {
            if (!((entry.lineBitmap >> li) & 1))
                continue;
            const LineAddr home = lineOf(base + li * lineBytes);
            // Clearing the in-memory bit is a device-side metadata write
            // at the line's home.
            lat += cxlDram_.access(lineBase(home) - cfg_.cxlBase(), now,
                                   true);
            const PhysAddr lpa = pipm_->localLineAddr(h, page, li);
            if (naiveCoherence_) {
                // Naive coherence caches migrated lines as ordinary
                // directory-tracked M/S copies; only the memory copy
                // moves back. Sync the home from a live cached copy
                // (mirroring the crash sweep); failing that, the latest
                // value lived only in the local frame.
                const DirEntry *de = deviceDir_.probe(home);
                if (!(de && syncHomeFromLiveCopy(*de, home, now, lat)) &&
                    mem_.read(lineOf(lpa)) != mem_.read(home))
                    noteLostLine(home);
                continue;
            }
            // PIPM coherence: the line is (at most) ME-cached by the
            // page's owner, invisible to the directory. Pull it back.
            auto ev = hosts_[h].caches->invalidateLine(home);
            const std::uint64_t v = ev ? ev->data
                                       : mem_.read(lineOf(lpa));
            if (v != mem_.read(home))
                noteLostLine(home);
        }
        pipm_->crashReclaimPage(h, page);   // drops quarantine + journal
    }
    invalidateRemapCaches(page);
    faults_->metaUnrepairable.inc();
    traceEvent(ObsEventType::scrubUnrepairable, now, page, h);
    return lat;
}

Cycles
MultiHostSystem::metaGuardPage(PageFrame page, Cycles now)
{
    if (!pipm_ || pipm_->corruptedCount() == 0)
        return 0;
    Cycles lat = 0;
    for (unsigned s = 0; s < cfg_.numHosts; ++s) {
        const auto sh = static_cast<HostId>(s);
        if (pipm_->localEntryCorrupted(sh, page))
            lat += resolveRemapCorruption(sh, page, now);
    }
    return lat;
}

void
MultiHostSystem::rejoinHost(HostId h, Cycles now)
{
    panic_if(!faults_, "host rejoin requires fault injection enabled");
    panic_if(h >= cfg_.numHosts, "rejoinHost: host id out of range");
    panic_if(hostAlive_[h], "rejoinHost: host ", int(h), " is alive");

    // A host rejoining before its lease ever expired (short outage) still
    // forces the reclaim: the device must not readmit a host whose old
    // state is live in the directory.
    if (detection_ && needsReclaim_[h]) {
        markSuspected(h, now);
        reclaimHost(h, now);
    }

    faults_->hostRejoins.inc();
    traceEvent(ObsEventType::hostRejoin, now, 0, h, hostEpoch_[h]);
    hostAlive_[h] = 1;
    ++hostEpoch_[h];
    hostDownUntil_[h] = 0;
    if (detection_) {
        // Fresh lease: the readmitted host renews from `now` on its grid.
        trusted_[h] = 1;
        lastHeartbeat_[h] = now;
        while (nextHeartbeat_[h] <= now)
            nextHeartbeat_[h] += heartbeatCycles_;
        zombieReadmitAt_[h] = 0;
    }
    // Caches, TLBs and the local remap cache were already emptied at crash
    // time; the host comes back cold under its fresh (even) epoch, so any
    // stale in-flight reference stamped under the old epoch is rejected.
    invalidateEventHorizon();   // fresh lease and heartbeat grid
    checkInvariants();
}

void
MultiHostSystem::flushSharedPage(std::uint64_t idx)
{
    const SharedMapping &m = space_->sharedMapping(idx);
    const PhysAddr base = pageBase(m.frame);
    for (unsigned li = 0; li < linesPerPage; ++li) {
        const LineAddr line = lineOf(base + li * lineBytes);
        for (unsigned s = 0; s < cfg_.numHosts; ++s) {
            auto ev = hosts_[s].caches->invalidateLine(line);
            if (ev && ev->dirty)
                mem_.write(line, ev->data);
        }
        // Deallocating an untracked line is a no-op, so gating it on the
        // probe saves the second directory scan for the common case of a
        // page line nobody had cached.
        if (const DirEntry *e = deviceDir_.probe(line)) {
            noteDeadOwnedDrop(line, *e);
            deviceDir_.deallocate(line);
        }
    }
}

void
MultiHostSystem::movePageData(std::uint64_t idx, PageFrame from,
                              PageFrame to)
{
    for (unsigned li = 0; li < linesPerPage; ++li) {
        mem_.copyLine(lineOf(pageBase(from) + li * lineBytes),
                      lineOf(pageBase(to) + li * lineBytes));
    }
    // Remapping invalidates the page's translation at every core.
    for (auto &host : hosts_) {
        for (Tlb &t : host.tlbs)
            t.shootdown(idx);
    }
}

bool
MultiHostSystem::executePromotion(std::uint64_t idx, HostId target,
                                  Cycles now)
{
    if (migratedTo_[idx] != invalidHost)
        return false;
    if (!hostAlive_[target])
        return false;   // policies may still nominate a crashed host
    const PageFrame old_frame = space_->sharedMapping(idx).frame;
    flushSharedPage(idx);
    if (!space_->migrateSharedToHost(idx, target))
        return false;
    const PageFrame new_frame = space_->sharedMapping(idx).frame;
    movePageData(idx, old_frame, new_frame);
    migratedTo_[idx] = target;
    // Page copy traffic: CXL read, link to the target host, local write.
    const auto scaled =
        static_cast<unsigned>(cfg_.osPageTransferBytes());
    hosts_[target].link->transfer(LinkDir::toHost, scaled, now);
    cxlDram_.access(pageBase(old_frame) - cfg_.cxlBase(), now, false);
    hosts_[target].dram->access(
        pageBase(new_frame) - cfg_.localBase(target), now, true);
    migrationTransferBytes.inc(pageBytes);
    osMigrations.inc();
    traceEvent(ObsEventType::osMigration, now, idx, target,
               static_cast<std::uint32_t>(new_frame));
    if (harmful_)
        harmful_->onMigration(idx, target);
    return true;
}

void
MultiHostSystem::executeDemotion(std::uint64_t idx, Cycles now)
{
    if (migratedTo_[idx] == invalidHost)
        return;
    const HostId from = migratedTo_[idx];
    const PageFrame old_frame = space_->sharedMapping(idx).frame;
    flushSharedPage(idx);
    space_->demoteSharedToCxl(idx);
    const PageFrame new_frame = space_->sharedMapping(idx).frame;
    movePageData(idx, old_frame, new_frame);
    migratedTo_[idx] = invalidHost;
    const auto scaled =
        static_cast<unsigned>(cfg_.osPageTransferBytes());
    hosts_[from].link->transfer(LinkDir::toDevice, scaled, now);
    hosts_[from].dram->access(pageBase(old_frame) - cfg_.localBase(from),
                              now, false);
    cxlDram_.access(pageBase(new_frame) - cfg_.cxlBase(), now, true);
    migrationTransferBytes.inc(pageBytes);
    osDemotions.inc();
    traceEvent(ObsEventType::osDemotion, now, idx, from,
               static_cast<std::uint32_t>(new_frame));
    if (harmful_)
        harmful_->onDemotion(idx);
}

void
MultiHostSystem::runEpoch(Cycles now)
{
    EpochContext ctx;
    ctx.sharedPages = space_->sharedPages();
    ctx.numHosts = cfg_.numHosts;
    const std::uint64_t private_pages =
        (space_->privateBytesPerHost() + pageBytes - 1) / pageBytes;
    ctx.localBudgetPages =
        cfg_.localBytesPerHost() / pageBytes - private_pages;
    ctx.maxPagesPerEpoch = cfg_.osMigration.maxPagesPerEpoch;
    ctx.hotThreshold = cfg_.osMigration.hotThreshold;
    ctx.usedFramesPerHost.resize(cfg_.numHosts);
    for (unsigned h = 0; h < cfg_.numHosts; ++h)
        ctx.usedFramesPerHost[h] = space_->migratedFramesOn(
            static_cast<HostId>(h));

    const EpochPlan plan = osPolicy_->epoch(ctx, migratedTo_);

    std::uint64_t moved = 0;
    std::vector<std::uint64_t> initiated(cfg_.numHosts, 0);
    for (const Promotion &p : plan.promotions) {
        if (executePromotion(p.sharedIdx, p.target, now)) {
            ++moved;
            ++initiated[p.target];
        }
    }
    for (std::uint64_t idx : plan.demotions) {
        if (migratedTo_[idx] != invalidHost) {
            const HostId from = migratedTo_[idx];
            executeDemotion(idx, now);
            ++moved;
            ++initiated[from];
        }
    }
    if (moved == 0)
        return;

    // Kernel costs: the initiating core (core 0 of the initiating host,
    // modelling the kernel migration thread) pays the per-page cost; every
    // other core in the system pays the TLB-shootdown/IPI cost, since the
    // unified PA change must be propagated to all hosts (§3.1).
    const Cycles init_cost = cfg_.osPageInitiatorCycles();
    const Cycles other_cost = cfg_.osPageOtherCycles();
    for (unsigned h = 0; h < cfg_.numHosts; ++h) {
        for (unsigned c = 0; c < cfg_.coresPerHost; ++c) {
            Cycles charge = moved * other_cost;
            if (c == 0 && initiated[h] > 0)
                charge += initiated[h] * init_cost;
            hosts_[h].pendingStall[c] += charge;
            mgmtStallCycles.inc(charge);
        }
    }
}

void
MultiHostSystem::resetStats()
{
    forEachStatGroup([](StatGroup &g, const std::string &) { g.resetAll(); });
}

void
MultiHostSystem::forEachStatGroup(
    const std::function<void(StatGroup &, const std::string &)> &fn)
{
    fn(stats_, "");
    for (unsigned h = 0; h < cfg_.numHosts; ++h) {
        const std::string prefix = "host" + std::to_string(h) + ".";
        fn(hosts_[h].caches->stats(), prefix);
        fn(hosts_[h].dram->stats(), prefix);
        fn(hosts_[h].link->stats(), prefix);
        if (hosts_[h].localRemap)
            fn(hosts_[h].localRemap->stats(), prefix);
    }
    fn(deviceDir_.stats(), "");
    fn(cxlDram_.stats(), "");
    if (globalRemap_)
        fn(globalRemap_->stats(), "");
    if (pipm_)
        fn(pipm_->stats(), "");
    if (faults_)
        fn(faults_->stats(), "");
    if (switch_)
        fn(switch_->stats(), "");
}

void
MultiHostSystem::attachTrace(ObsTrace *trace)
{
    trace_ = trace;
    deviceDir_.attachTrace(trace);
    if (faults_)
        faults_->attachTrace(trace);
}

void
MultiHostSystem::registerStats(MetricsRegistry &registry)
{
    // Every group reset at the warmup boundary, plus the harmful tracker
    // (whose counters are lifetime totals — the registry's begin()
    // baseline handles the offset).
    forEachStatGroup([&](StatGroup &g, const std::string &prefix) {
        registry.addGroup(g, prefix);
    });
    if (harmful_)
        registry.addGroup(harmful_->stats());
}

void
MultiHostSystem::checkInvariants() const
{
    // SWMR: a line cached M/ME anywhere is cached nowhere else; S lines
    // may be cached at several hosts but never alongside M.
    // Directory precision: device-M lines are cached in M at exactly the
    // owner; PIPM bitmap lines have no directory entry.
    if (pipm_)
        pipm_->checkRemapInvariants();
    for (unsigned h = 0; h < cfg_.numHosts; ++h) {
        panic_if(hostAlive_[h] != (hostEpoch_[h] % 2 == 0 ? 1 : 0),
                 "host ", h, " epoch parity (", hostEpoch_[h],
                 ") disagrees with liveness");
        const bool unswept =
            detection_ && !hostAlive_[h] && needsReclaim_[h];
        if (detection_) {
            panic_if(needsReclaim_[h] && hostAlive_[h],
                     "alive host ", h, " marked needs-reclaim");
            panic_if(zombieReadmitAt_[h] && hostAlive_[h],
                     "alive host ", h, " has a pending zombie readmit");
        }
        if (faults_ && !unswept) {
            panic_if(!pendingDirty_[h].empty(), "host ", h,
                     " has pending dirty captures outside a deferred "
                     "reclaim");
        }
        if (hostAlive_[h])
            continue;
        if (unswept) {
            // Lease mode, lease not yet expired: the dead host's device
            // state legitimately lingers until suspicion reclaims it.
            continue;
        }
        // A crashed host must leave no trace until it rejoins.
        if (pipm_)
            pipm_->checkNoHostReferences(static_cast<HostId>(h));
        for (std::uint64_t idx = 0; idx < migratedTo_.size(); ++idx) {
            panic_if(migratedTo_[idx] == static_cast<HostId>(h),
                     "shared page ", idx, " still OS-migrated to dead host ",
                     h);
        }
    }
    const PhysAddr cxl_base = cfg_.cxlBase();
    const PhysAddr cxl_end = cfg_.addressSpaceEnd();
    for (LineAddr line = lineOf(cxl_base); line < lineOf(cxl_end); ++line) {
        unsigned m_holders = 0;
        unsigned s_holders = 0;
        for (unsigned h = 0; h < cfg_.numHosts; ++h) {
            const HostState st = hosts_[h].caches->stateOf(line);
            panic_if(!hostAlive_[h] && st != HostState::I,
                     "dead host ", h, " still caches line ", line);
            switch (st) {
              case HostState::M:
              case HostState::ME:
                ++m_holders;
                break;
              case HostState::S:
                ++s_holders;
                break;
              case HostState::I:
                break;
            }
        }
        if (scheme_ == Scheme::localOnly) {
            // The Local-only ideal deliberately models no cross-host
            // coherence (§5.1.3): every host fills shared lines in M, so
            // SWMR and the poison/directory checks below do not apply.
            // Only the dead-host check above is meaningful.
            continue;
        }
        panic_if(m_holders > 1, "SWMR violated: line ", line,
                 " exclusively cached at ", m_holders, " hosts");
        panic_if(m_holders == 1 && s_holders > 0,
                 "SWMR violated: line ", line,
                 " cached M alongside S copies");
        if (faults_ && faults_->linePersistentlyPoisoned(line)) {
            // A persistently poisoned line is only ever served via the
            // uncacheable degraded path: nothing may cache it and the
            // directory must not track it.
            panic_if(m_holders + s_holders > 0, "poisoned line ", line,
                     " is cached somewhere");
            panic_if(deviceDir_.probe(line) != nullptr, "poisoned line ",
                     line, " has a device directory entry");
        }
        const DirEntry *entry = deviceDir_.probe(line);
        if (pipm_) {
            const PageFrame page = pageOfLine(line);
            const HostId mh = pipm_->migratedHostOf(page);
            if (mh != invalidHost &&
                pipm_->lineMigrated(
                    mh, page,
                    static_cast<unsigned>(line & (linesPerPage - 1)))) {
                panic_if(entry != nullptr && !naiveCoherence_,
                         "migrated line ", line,
                         " still has a device directory entry");
                if (!naiveCoherence_)
                    continue;
            }
        }
        if (entry) {
            for (unsigned h = 0; h < cfg_.numHosts; ++h) {
                panic_if(!hostAlive_[h] &&
                             entry->has(static_cast<HostId>(h)) &&
                             !(detection_ && needsReclaim_[h]),
                         "directory entry for line ", line,
                         " still lists dead host ", h);
            }
        }
        if (entry && entry->state == DevState::M) {
            const HostId owner = entry->owner(cfg_.numHosts);
            if (detection_ && needsReclaim_[owner]) {
                // Dead-unswept owner: its cache is gone and its epoch
                // already bumped; the entry survives (stale) until the
                // suspicion sweep or the epoch backstop drops it.
            } else {
                panic_if(hosts_[owner].caches->stateOf(line) !=
                             HostState::M,
                         "device-M line ", line, " not cached M at owner");
                panic_if(entry->ownerEpoch != hostEpoch_[owner],
                         "device-M line ", line,
                         " stamped with stale epoch ", entry->ownerEpoch,
                         " for host ", int(owner));
            }
        }
    }
}

} // namespace pipm
