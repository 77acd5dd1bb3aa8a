/**
 * @file
 * The unified physical address space and its OS-level management.
 *
 * Following the paper's setup (§5.1.4), each workload has two kinds of
 * data: *private* data (code, stacks, kernel structures) pinned in the
 * owning host's local DRAM, and *shared* heap data placed initially in
 * CXL-DSM. Shared pages are addressed by a dense shared-page index; the
 * AddressSpace maps indices to unified physical frames and supports the
 * whole-page migration that OS-level schemes perform (GIM remapping with
 * page-table updates), keeping the original CXL frame reserved so a
 * demotion restores the original mapping.
 *
 * Frame allocators model capacity only; they hand out frame numbers and
 * enforce the (scaled) capacities of Table 2.
 */

#ifndef PIPM_OS_ADDRESS_SPACE_HH
#define PIPM_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace pipm
{

/** Bump-plus-free-list allocator over a contiguous frame range. */
class FrameAllocator
{
  public:
    /** @param base first frame, @param frames number of frames */
    FrameAllocator(PageFrame base, std::uint64_t frames)
        : base_(base), frames_(frames)
    {
    }

    /** Allocate one frame; nullopt when exhausted. */
    std::optional<PageFrame>
    alloc()
    {
        if (!freeList_.empty()) {
            PageFrame f = freeList_.back();
            freeList_.pop_back();
            return f;
        }
        if (next_ < frames_)
            return base_ + next_++;
        return std::nullopt;
    }

    /** Return a frame to the pool. */
    void
    free(PageFrame f)
    {
        panic_if(f < base_ || f >= base_ + frames_,
                 "freeing frame ", f, " outside allocator range");
        freeList_.push_back(f);
    }

    std::uint64_t
    inUse() const
    {
        return next_ - freeList_.size();
    }

    std::uint64_t capacity() const { return frames_; }

  private:
    PageFrame base_;
    std::uint64_t frames_;
    std::uint64_t next_ = 0;
    std::vector<PageFrame> freeList_;
};

/** Where a shared page currently lives. */
struct SharedMapping
{
    PageFrame frame = 0;          ///< current unified frame
    PageFrame cxlFrame = 0;       ///< its reserved home frame in CXL-DSM
    HostId gimHost = invalidHost; ///< host holding it if OS-migrated
};

/**
 * System-wide address-space manager: private regions per host plus the
 * shared heap with OS-level (whole-page, GIM) migration support.
 */
class AddressSpace
{
  public:
    /**
     * @param cfg machine configuration (address map, capacities)
     * @param shared_bytes size of the shared heap (scaled footprint)
     * @param private_bytes_per_host private data pinned per host
     */
    AddressSpace(const SystemConfig &cfg, std::uint64_t shared_bytes,
                 std::uint64_t private_bytes_per_host);

    /**
     * fatal() unless the shared heap fits the CXL pool and the private
     * data leaves local frames free, each rounded up to whole pages. The
     * constructor applies it; fuzz::caseValid checks a case with it
     * before any run.
     */
    static void checkFits(const SystemConfig &cfg, std::uint64_t shared_bytes,
                          std::uint64_t private_bytes_per_host);

    /** Number of shared heap pages. */
    std::uint64_t sharedPages() const { return shared_.size(); }

    /** Physical frame currently backing shared page `idx`. */
    PageFrame
    sharedFrame(std::uint64_t idx) const
    {
        return shared_[idx].frame;
    }

    /** Full mapping record for shared page `idx`. */
    const SharedMapping &
    sharedMapping(std::uint64_t idx) const
    {
        return shared_[idx];
    }

    /** Reverse map: shared page index of a unified frame, if any. */
    std::optional<std::uint64_t> sharedIndexOf(PageFrame frame) const;

    /** Physical address of byte `offset` within host h's private region. */
    PhysAddr privateAddr(HostId h, std::uint64_t offset) const;

    /**
     * OS whole-page migration of shared page `idx` into host `to`'s local
     * DRAM (GIM exposure). Fails (returns false) when the host's local
     * memory is exhausted. The caller charges kernel costs.
     */
    bool migrateSharedToHost(std::uint64_t idx, HostId to);

    /** OS demotion: restore shared page `idx` to its CXL home frame. */
    void demoteSharedToCxl(std::uint64_t idx);

    /**
     * Allocate a local frame on host `h` for PIPM partial migration
     * (the OS/hypervisor allocation of §4.2). nullopt when full.
     */
    std::optional<PageFrame> allocPipmFrame(HostId h);

    /** Release a PIPM frame (partial-migration revocation). */
    void freePipmFrame(HostId h, PageFrame f);

    /** Frames of host h's local DRAM currently used for migrated data. */
    std::uint64_t migratedFramesOn(HostId h) const;

    /** Bytes of private data pinned on each host. */
    std::uint64_t privateBytesPerHost() const { return privateBytes_; }

    const SystemConfig &config() const { return cfg_; }

  private:
    SystemConfig cfg_;
    std::uint64_t privateBytes_;
    std::vector<SharedMapping> shared_;
    std::vector<FrameAllocator> localAlloc_;   ///< per host, after private
    FrameAllocator cxlAlloc_;
    /** frame -> shared index for frames outside the CXL home range. */
    std::vector<std::int64_t> gimIndex_;       ///< per local frame, -1 none
    std::uint64_t cxlHomeBase_;                ///< first shared home frame
};

} // namespace pipm

#endif // PIPM_OS_ADDRESS_SPACE_HH
