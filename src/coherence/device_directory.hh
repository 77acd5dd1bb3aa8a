/**
 * @file
 * The device coherence directory on the CXL memory node (Fig. 2).
 *
 * Tracks, for each CXL-DSM line cached by any host, the device-level
 * coherence state and the set of sharer hosts. The directory is a finite
 * sliced set-associative structure (Table 2: 2048 sets x 16 ways x 16
 * slices); allocating an entry for a line whose set is full *recalls* a
 * victim line — the caller must invalidate it at its sharers (and collect
 * dirty data) before the new entry is live.
 *
 * Lines in the PIPM I' state are represented by the in-memory bit, not by
 * directory entries, so partial migration reduces directory pressure
 * (§4.3.3 "PIPM does not introduce extra CXL directory resource
 * contention ... but instead reduces it").
 */

#ifndef PIPM_COHERENCE_DEVICE_DIRECTORY_HH
#define PIPM_COHERENCE_DEVICE_DIRECTORY_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>

#include "cache/set_assoc.hh"
#include "coherence/state.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/trace.hh"

namespace pipm
{

/** Directory record for one CXL line. */
struct DirEntry
{
    DevState state = DevState::I;
    std::uint32_t sharers = 0;     ///< bitmask of hosts holding the line
    /**
     * Epoch of the owning host when this entry went to state M. A host's
     * epoch advances on every crash and rejoin, so a stale entry naming
     * a since-crashed owner is rejected instead of forwarded to (see
     * MultiHostSystem::cxlAccess and DESIGN.md §8). Meaningless in S.
     */
    std::uint32_t ownerEpoch = 0;

    bool has(HostId h) const { return sharers & (1u << h); }
    void add(HostId h) { sharers |= 1u << h; }
    void remove(HostId h) { sharers &= ~(1u << h); }

    /**
     * The owning host. Only meaningful in state M (debug-asserted): an
     * S entry has no owner, and consulting the first set bit of its mask
     * would silently fabricate one.
     * @param num_hosts bound of the sharer scan (configured host count)
     */
    HostId
    owner(unsigned num_hosts) const
    {
        assert(state == DevState::M &&
               "DirEntry::owner() consulted in a non-owner state");
        for (unsigned h = 0; h < num_hosts; ++h) {
            if (sharers & (1u << h))
                return static_cast<HostId>(h);
        }
        return invalidHost;
    }
};

/** The sliced device directory with recall-on-eviction semantics. */
class DeviceDirectory
{
  public:
    /** A victim entry that must be recalled from its sharers. */
    struct Recall
    {
        LineAddr line = 0;
        DirEntry entry{};
    };

    explicit DeviceDirectory(const DirectoryConfig &cfg);

    /**
     * Charge the latency of one directory access, including slice
     * contention (each slice serves one request per service slot).
     */
    Cycles accessLatency(LineAddr line, Cycles now);

    /** Find the entry for a line; nullptr if untracked (state I). */
    DirEntry *lookup(LineAddr line);

    /** Probe without updating replacement state. */
    const DirEntry *probe(LineAddr line) const;

    /**
     * Allocate an entry for a line (which must be untracked).
     * @return a victim to recall first, if the set was full
     */
    std::optional<Recall> allocate(LineAddr line, DirEntry entry);

    /** Drop the entry for a line (last sharer gone / migrated to I'). */
    std::optional<DirEntry> deallocate(LineAddr line);

    /**
     * Visit every tracked line. Used by the crash sweep (collect the
     * lines referencing a dead host, then mutate via lookup/deallocate)
     * and by invariant checks; fn must not modify the directory.
     */
    void forEach(
        const std::function<void(LineAddr, const DirEntry &)> &fn) const;

    // ---- Metadata fault domain (DESIGN.md §12) ---------------------------
    //
    // A corruption event flips bits in an entry's stored image. Every
    // directory read validates the entry against its per-entry shadow
    // checksum, so corrupted metadata is never *consumed*: the entry is
    // quarantined (the corruption record below) until the scrubber or
    // the faulting demand access rebuilds it — by probing the sharer
    // hosts when the checksum survives, or by the degraded fallback when
    // the fault spans the checksum too. The simulator therefore keeps
    // the pristine image in place and tracks the corruption beside it;
    // what it models is the detection, the repair traffic/latency and
    // the fallback, which is all a checksum-validated directory exposes.

    /** Outstanding corruption of one entry's stored image. */
    struct MetaCorruption
    {
        std::uint64_t bits = 0;   ///< bit-flip mask the fault applied
        bool shadowHit = false;   ///< checksum also hit: unrepairable
    };

    /**
     * Quarantine the entry for `line` as corrupted.
     * @return false when the line is untracked (nothing to corrupt) or
     *         already quarantined
     */
    bool corruptEntry(LineAddr line, std::uint64_t bits, bool shadow_hit);

    /**
     * Quarantine the victim of one corruption event: the first tracked
     * line, in the rotated order of SetAssoc::rotateFrom(pick), that is
     * not quarantined already. Costs two tag-strip scans, not a copy of
     * the directory.
     * @return the quarantined line, or nullopt when every tracked line
     *         (possibly none) is quarantined already
     */
    std::optional<LineAddr> corruptFrom(std::uint64_t pick,
                                        std::uint64_t bits,
                                        bool shadow_hit);

    /** Whether the entry for `line` is quarantined. */
    bool entryCorrupted(LineAddr line) const
    {
        return !corrupt_.empty() && corrupt_.contains(line);
    }

    /** The corruption record, or nullptr when not quarantined. */
    const MetaCorruption *corruptionOf(LineAddr line) const;

    /** The entry was rebuilt (or dropped): lift the quarantine. */
    void clearCorruption(LineAddr line) { corrupt_.erase(line); }

    /** Quarantined lines in address order (deterministic scrub walk). */
    std::vector<LineAddr> corruptedLines() const
    {
        return corrupt_.sortedKeys();
    }

    std::size_t corruptedCount() const { return corrupt_.size(); }

    /**
     * Attach an event trace (nullptr: detach). Allocations and
     * deallocations of watched lines are recorded; the timestamp is the
     * last accessLatency() clock, since allocate/deallocate are called
     * within the access transaction that already charged the directory
     * trip.
     */
    void attachTrace(ObsTrace *trace) { trace_ = trace; }

    StatGroup &stats() { return stats_; }

    Counter lookups;
    Counter recalls;

  private:
    unsigned slices_;
    // line % slices_ as an AND when the slice count is a power of two
    // (all shipped configs); 0 selects the modulo fallback.
    unsigned sliceMask_ = 0;
    Cycles roundTrip_;
    Cycles serviceCycles_;
    std::vector<Cycles> sliceBusyUntil_;
    SetAssoc<DirEntry> entries_;
    FlatMap<LineAddr, MetaCorruption> corrupt_;   ///< quarantined entries
    ObsTrace *trace_ = nullptr;
    Cycles lastNow_ = 0;   ///< clock of the last accessLatency()
    StatGroup stats_;
};

} // namespace pipm

#endif // PIPM_COHERENCE_DEVICE_DIRECTORY_HH
