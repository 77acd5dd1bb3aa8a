/**
 * @file
 * Functional memory image: the authoritative data value of every memory
 * line (local DRAM frames and the CXL pool).
 *
 * Each line holds a 64-bit token. Untouched lines read as a deterministic
 * hash of their address, so data-value checks in integration tests are
 * meaningful even for lines never written. The image is sparse: only
 * written lines are stored.
 *
 * Values never influence timing, so an image built with tracking off
 * (DESIGN.md §9, "value plane on demand") stores nothing: every read
 * returns 0 and writes are dropped.
 */

#ifndef PIPM_MEM_MEMORY_IMAGE_HH
#define PIPM_MEM_MEMORY_IMAGE_HH

#include <cstdint>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace pipm
{

/** Sparse map from line address to data token. */
class MemoryImage
{
  public:
    /** @param track_values false: reads return 0, writes do nothing */
    explicit MemoryImage(bool track_values = true) : track_(track_values) {}

    /** The value a never-written line reads as. */
    static std::uint64_t
    pristine(LineAddr line)
    {
        std::uint64_t z = line + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t
    read(LineAddr line) const
    {
        if (!track_)
            return 0;
        auto it = data_.find(line);
        return it == data_.end() ? pristine(line) : it->second;
    }

    void
    write(LineAddr line, std::uint64_t value)
    {
        if (track_)
            data_[line] = value;
    }

    /** Copy one line's value to another location (page migration). */
    void
    copyLine(LineAddr from, LineAddr to)
    {
        write(to, read(from));
    }

    /** Pre-size for an expected written-line count (avoids rehash churn). */
    void reserve(std::uint64_t lines) { data_.reserve(lines); }

    bool tracksValues() const { return track_; }

  private:
    bool track_;
    FlatMap<LineAddr, std::uint64_t> data_;
};

} // namespace pipm

#endif // PIPM_MEM_MEMORY_IMAGE_HH
