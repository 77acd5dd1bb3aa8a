#include "coherence/device_directory.hh"

#include <algorithm>

namespace pipm
{

DeviceDirectory::DeviceDirectory(const DirectoryConfig &cfg)
    : slices_(cfg.slices),
      roundTrip_(cfg.roundTrip),
      serviceCycles_(std::max<Cycles>(1, cfg.roundTrip / 8)),
      sliceBusyUntil_(cfg.slices, 0),
      entries_(cfg.sets * cfg.slices, cfg.ways, ReplPolicy::lru),
      stats_("device_dir")
{
    if (slices_ != 0 && (slices_ & (slices_ - 1)) == 0)
        sliceMask_ = slices_ - 1;
    stats_.addCounter(&lookups, "lookups", "directory lookups");
    stats_.addCounter(&recalls, "recalls",
                      "entries recalled for capacity");
}

Cycles
DeviceDirectory::accessLatency(LineAddr line, Cycles now)
{
    lookups.inc();
    lastNow_ = now;
    const unsigned slice =
        sliceMask_ ? static_cast<unsigned>(line) & sliceMask_
                   : static_cast<unsigned>(line % slices_);
    const Cycles start = std::max(now, sliceBusyUntil_[slice]);
    sliceBusyUntil_[slice] = start + serviceCycles_;
    return (start - now) + roundTrip_;
}

DirEntry *
DeviceDirectory::lookup(LineAddr line)
{
    return entries_.lookup(line);
}

const DirEntry *
DeviceDirectory::probe(LineAddr line) const
{
    return entries_.probe(line);
}

std::optional<DeviceDirectory::Recall>
DeviceDirectory::allocate(LineAddr line, DirEntry entry)
{
    if (trace_ && trace_->lineWatched(line)) {
        trace_->record(ObsEventType::dirAllocate, lastNow_, line,
                       entry.state == DevState::M
                           ? entry.owner(32)
                           : invalidHost,
                       static_cast<std::uint32_t>(entry.state));
    }
    auto victim = entries_.insert(line, entry);
    if (!victim)
        return std::nullopt;
    recalls.inc();
    // The victim's metadata word is dropped with the entry; an
    // outstanding corruption of it is moot (the recall below works on
    // the checksum-protected image we hand back).
    clearCorruption(victim->key);
    if (trace_ && trace_->lineWatched(victim->key)) {
        trace_->record(ObsEventType::dirDeallocate, lastNow_, victim->key,
                       invalidHost,
                       static_cast<std::uint32_t>(victim->meta.state));
    }
    return Recall{victim->key, victim->meta};
}

std::optional<DirEntry>
DeviceDirectory::deallocate(LineAddr line)
{
    auto e = entries_.invalidate(line);
    if (!e)
        return std::nullopt;
    clearCorruption(line);
    if (trace_ && trace_->lineWatched(line)) {
        trace_->record(ObsEventType::dirDeallocate, lastNow_, line,
                       invalidHost,
                       static_cast<std::uint32_t>(e->meta.state));
    }
    return e->meta;
}

bool
DeviceDirectory::corruptEntry(LineAddr line, std::uint64_t bits,
                              bool shadow_hit)
{
    if (!entries_.probe(line) || entryCorrupted(line))
        return false;
    corrupt_[line] = MetaCorruption{bits, shadow_hit};
    return true;
}

std::optional<LineAddr>
DeviceDirectory::corruptFrom(std::uint64_t pick, std::uint64_t bits,
                             bool shadow_hit)
{
    return entries_.rotateFrom(pick, [&](LineAddr line) {
        return corruptEntry(line, bits, shadow_hit);
    });
}

const DeviceDirectory::MetaCorruption *
DeviceDirectory::corruptionOf(LineAddr line) const
{
    const auto it = corrupt_.find(line);
    return it == corrupt_.end() ? nullptr : &it->second;
}

void
DeviceDirectory::forEach(
    const std::function<void(LineAddr, const DirEntry &)> &fn) const
{
    entries_.forEach([&](const auto &entry) { fn(entry.key, entry.meta); });
}

} // namespace pipm
