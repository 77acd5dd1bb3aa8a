#include "os/address_space.hh"

namespace pipm
{

namespace
{

std::uint64_t
pagesFor(std::uint64_t bytes)
{
    return (bytes + pageBytes - 1) / pageBytes;
}

} // namespace

void
AddressSpace::checkFits(const SystemConfig &cfg, std::uint64_t shared_bytes,
                        std::uint64_t private_bytes_per_host)
{
    const std::uint64_t private_pages = pagesFor(private_bytes_per_host);
    const std::uint64_t local_pages = cfg.localBytesPerHost() / pageBytes;
    fatal_if(private_pages >= local_pages,
             "private data (", private_pages, " pages) does not fit in ",
             local_pages, " local pages");
    fatal_if(pagesFor(shared_bytes) > cfg.cxlPoolBytes() / pageBytes,
             "shared heap (", pagesFor(shared_bytes),
             " pages) does not fit in the CXL pool");
}

AddressSpace::AddressSpace(const SystemConfig &cfg,
                           std::uint64_t shared_bytes,
                           std::uint64_t private_bytes_per_host)
    : cfg_(cfg),
      privateBytes_(private_bytes_per_host),
      cxlAlloc_(pageOf(cfg.cxlBase()), cfg.cxlPoolBytes() / pageBytes)
{
    checkFits(cfg, shared_bytes, private_bytes_per_host);
    const std::uint64_t shared_pages = pagesFor(shared_bytes);
    const std::uint64_t private_pages = pagesFor(private_bytes_per_host);
    const std::uint64_t local_pages = cfg.localBytesPerHost() / pageBytes;

    // Private regions occupy the first private_pages frames of each host's
    // local range; the remainder feeds the per-host migration allocator.
    localAlloc_.reserve(cfg.numHosts);
    for (unsigned h = 0; h < cfg.numHosts; ++h) {
        const PageFrame base = pageOf(cfg.localBase(static_cast<HostId>(h)));
        localAlloc_.emplace_back(base + private_pages,
                                 local_pages - private_pages);
    }
    gimIndex_.assign(static_cast<std::size_t>(cfg.numHosts) * local_pages,
                     -1);

    // Shared heap: dense home frames at the bottom of the CXL pool
    // (§5.1.4: all shared data initially placed in CXL-DSM).
    shared_.resize(shared_pages);
    cxlHomeBase_ = 0;
    for (std::uint64_t i = 0; i < shared_pages; ++i) {
        auto frame = cxlAlloc_.alloc();
        panic_if(!frame, "CXL allocator exhausted during setup");
        if (i == 0)
            cxlHomeBase_ = *frame;
        shared_[i] = SharedMapping{*frame, *frame, invalidHost};
    }
}

std::optional<std::uint64_t>
AddressSpace::sharedIndexOf(PageFrame frame) const
{
    if (frame >= cxlHomeBase_ && frame < cxlHomeBase_ + shared_.size()) {
        const std::uint64_t idx = frame - cxlHomeBase_;
        // Only valid while the page actually lives in its home frame.
        if (shared_[idx].frame == frame)
            return idx;
        return std::nullopt;
    }
    if (frame < gimIndex_.size() && gimIndex_[frame] >= 0)
        return static_cast<std::uint64_t>(gimIndex_[frame]);
    return std::nullopt;
}

PhysAddr
AddressSpace::privateAddr(HostId h, std::uint64_t offset) const
{
    panic_if(offset >= privateBytes_, "private offset ", offset,
             " out of range");
    return cfg_.localBase(h) + offset;
}

bool
AddressSpace::migrateSharedToHost(std::uint64_t idx, HostId to)
{
    SharedMapping &m = shared_[idx];
    panic_if(m.gimHost == to, "page ", idx, " already on host ", int(to));
    auto frame = localAlloc_[to].alloc();
    if (!frame)
        return false;
    if (m.gimHost != invalidHost) {
        // Host-to-host move: release the old GIM frame first.
        gimIndex_[m.frame] = -1;
        localAlloc_[m.gimHost].free(m.frame);
    }
    m.frame = *frame;
    m.gimHost = to;
    gimIndex_[*frame] = static_cast<std::int64_t>(idx);
    return true;
}

void
AddressSpace::demoteSharedToCxl(std::uint64_t idx)
{
    SharedMapping &m = shared_[idx];
    panic_if(m.gimHost == invalidHost, "page ", idx, " is not migrated");
    gimIndex_[m.frame] = -1;
    localAlloc_[m.gimHost].free(m.frame);
    m.frame = m.cxlFrame;
    m.gimHost = invalidHost;
}

std::optional<PageFrame>
AddressSpace::allocPipmFrame(HostId h)
{
    return localAlloc_[h].alloc();
}

void
AddressSpace::freePipmFrame(HostId h, PageFrame f)
{
    localAlloc_[h].free(f);
}

std::uint64_t
AddressSpace::migratedFramesOn(HostId h) const
{
    return localAlloc_[h].inUse();
}

} // namespace pipm
