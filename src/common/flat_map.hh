/**
 * @file
 * Open-addressing hash containers for the per-access hot path.
 *
 * The simulator's hottest associative state (the sparse memory image, the
 * PIPM remap tables, the poison map, the harmful-migration records) is
 * keyed by dense integer-like identifiers (line addresses, page frames).
 * libstdc++'s std::unordered_map resolves every probe through a bucket
 * pointer chase and node allocation; FlatMap stores key/value pairs
 * inline in a power-of-two slot array and resolves collisions by linear
 * probing, so a lookup is one hash, one indexed load and (almost always)
 * one key compare. Deletion uses backward-shift compaction instead of
 * tombstones, so probe sequences never grow with churn.
 *
 * Determinism caveat: iteration order is probe order, which depends on
 * capacity history (insert/erase sequence), unlike measurement results it
 * feeds. Any consumer whose *output* depends on visit order must collect
 * and sort keys first (see DESIGN.md §9); order-insensitive folds
 * (counter sums, invariant checks) may iterate directly.
 *
 * References and iterators are invalidated by rehash (any insert may
 * grow) and by erase (backward shift moves elements); do not hold them
 * across mutations.
 */

#ifndef PIPM_COMMON_FLAT_MAP_HH
#define PIPM_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/swar.hh"
#include "common/uninit_vector.hh"

namespace pipm
{

/** Finalizer-quality mix so page-strided keys spread over pow-2 slots. */
constexpr std::uint64_t
flatHashMix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/**
 * Open-addressing hash map from an integer-like key to a value.
 * @tparam K key type, convertible to std::uint64_t for hashing
 * @tparam V mapped type (default-constructible; K and V trivially
 *         copy-constructible and destructible, because slot storage is
 *         left unwritten until an insert constructs the pair in place)
 */
template <typename K, typename V>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;

    template <bool Const>
    class Iter
    {
      public:
        using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
        using Ref = std::conditional_t<Const, const value_type &,
                                       value_type &>;
        using Ptr = std::conditional_t<Const, const value_type *,
                                       value_type *>;

        Iter() = default;
        Iter(Map *map, std::size_t idx) : map_(map), idx_(idx) {}

        /** Implicit iterator-to-const_iterator conversion. */
        operator Iter<true>() const { return Iter<true>(map_, idx_); }

        Ref operator*() const { return map_->slots_[idx_]; }
        Ptr operator->() const { return &map_->slots_[idx_]; }

        Iter &
        operator++()
        {
            ++idx_;
            skip();
            return *this;
        }

        bool operator==(const Iter &o) const { return idx_ == o.idx_; }
        bool operator!=(const Iter &o) const { return idx_ != o.idx_; }

      private:
        friend class FlatMap;

        void
        skip()
        {
            while (idx_ < map_->slots_.size() && !map_->filled_[idx_])
                ++idx_;
        }

        Map *map_ = nullptr;
        std::size_t idx_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;
    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;
    FlatMap(FlatMap &&) = default;
    FlatMap &operator=(FlatMap &&) = default;

    // ---- Capacity ------------------------------------------------------

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /** Ensure `n` elements fit without a rehash. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = minCapacity;
        while (cap * maxLoadNum < n * maxLoadDen)
            cap *= 2;
        if (cap > slots_.size())
            rehash(cap);
    }

    void
    clear()
    {
        std::fill(filled_.begin(), filled_.end(),
                  static_cast<std::uint8_t>(0));
        size_ = 0;
    }

    // ---- Lookup --------------------------------------------------------

    iterator
    find(const K &key)
    {
        const std::size_t i = findSlot(key);
        return i == npos ? end() : iterator(this, i);
    }

    const_iterator
    find(const K &key) const
    {
        const std::size_t i = findSlot(key);
        return i == npos ? end() : const_iterator(this, i);
    }

    bool contains(const K &key) const { return findSlot(key) != npos; }

    /** The value of a key that must be present. */
    const V &
    at(const K &key) const
    {
        const std::size_t i = findSlot(key);
        panic_if(i == npos, "FlatMap::at: key ", std::uint64_t(key),
                 " not present");
        return slots_[i].second;
    }

    V &
    at(const K &key)
    {
        const std::size_t i = findSlot(key);
        panic_if(i == npos, "FlatMap::at: key ", std::uint64_t(key),
                 " not present");
        return slots_[i].second;
    }

    // ---- Mutation ------------------------------------------------------

    /** The value of a key, default-constructed if absent. */
    V &
    operator[](const K &key)
    {
        return slots_[insertSlot(key)].second;
    }

    /** Insert if absent; returns (iterator, inserted). */
    std::pair<iterator, bool>
    emplace(const K &key, V value)
    {
        const std::size_t before = size_;
        const std::size_t i = insertSlot(key);
        const bool inserted = size_ != before;
        if (inserted)
            slots_[i].second = std::move(value);
        return {iterator(this, i), inserted};
    }

    /** Insert or overwrite. */
    void
    insert_or_assign(const K &key, V value)
    {
        slots_[insertSlot(key)].second = std::move(value);
    }

    /** Erase a key if present. @return whether it was present */
    bool
    erase(const K &key)
    {
        const std::size_t i = findSlot(key);
        if (i == npos)
            return false;
        eraseSlot(i);
        return true;
    }

    /** Erase by iterator (invalidates all iterators). */
    void erase(const_iterator it) { eraseSlot(it.idx_); }

    // ---- Iteration (probe order: see file comment) --------------------

    iterator
    begin()
    {
        iterator it(this, 0);
        it.skip();
        return it;
    }

    const_iterator
    begin() const
    {
        const_iterator it(this, 0);
        it.skip();
        return it;
    }

    iterator end() { return iterator(this, slots_.size()); }
    const_iterator end() const { return const_iterator(this, slots_.size()); }

    /**
     * All keys in ascending order: the deterministic starting point for
     * any iteration whose side effects depend on visit order.
     */
    std::vector<K>
    sortedKeys() const
    {
        std::vector<K> keys;
        keys.reserve(size_);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (filled_[i])
                keys.push_back(slots_[i].first);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    static constexpr std::size_t minCapacity = 16;
    /** Grow beyond 7/8 load: probe runs stay short. */
    static constexpr std::size_t maxLoadNum = 7;
    static constexpr std::size_t maxLoadDen = 8;

    static std::uint64_t
    hashOf(const K &key)
    {
        return flatHashMix(static_cast<std::uint64_t>(key));
    }

    /**
     * Occupancy byte for a slot: top hash bits with the high bit forced
     * so it never reads as empty (0). Probes compare this byte — one
     * contiguous-array load — and only touch the 16-byte slot on a tag
     * match, which keeps long probe runs near the 7/8 load limit cheap.
     */
    static std::uint8_t
    tagOf(std::uint64_t hash)
    {
        return static_cast<std::uint8_t>(0x80u | (hash >> 57));
    }

    std::size_t
    homeOf(const K &key) const
    {
        return static_cast<std::size_t>(hashOf(key) & (slots_.size() - 1));
    }

    /** Slot of a present key, or npos. */
    std::size_t
    findSlot(const K &key) const
    {
        if (slots_.empty())
            return npos;
        const std::size_t mask = slots_.size() - 1;
        const std::uint64_t h = hashOf(key);
        const std::uint8_t tag = tagOf(h);
        std::size_t i = static_cast<std::size_t>(h) & mask;
        // Probe runs near the 7/8 load limit average tens of slots, so
        // walk the occupancy array eight bytes per step while a full
        // word fits before the wrap; the byte loop finishes the (rare)
        // run that crosses the array end. Probe order — and therefore
        // which slot is found — is exactly the byte loop's.
        const std::uint8_t *f = filled_.data();
        while (i + 8 <= filled_.size()) {
            const std::uint64_t word = swarLoad(f + i);
            const std::uint64_t mz = swarMatchMask(word, 0);
            std::uint64_t mt = swarMatchMask(word, tag);
            if (mz)
                mt &= (mz & -mz) - 1;   // candidates before the 1st empty
            while (mt) {
                const std::size_t c =
                    i + static_cast<std::size_t>(std::countr_zero(mt)) / 8;
                if (slots_[c].first == key)
                    return c;
                mt &= mt - 1;
            }
            if (mz)
                return npos;
            i += 8;
        }
        i &= mask;   // the word walk may stop exactly at the array end
        while (filled_[i]) {
            if (filled_[i] == tag && slots_[i].first == key)
                return i;
            i = (i + 1) & mask;
        }
        return npos;
    }

    /** Slot of a key, inserting a default-valued entry if absent. */
    std::size_t
    insertSlot(const K &key)
    {
        if (slots_.empty() ||
            (size_ + 1) * maxLoadDen > slots_.size() * maxLoadNum)
            rehash(slots_.empty() ? minCapacity : slots_.size() * 2);
        const std::size_t mask = slots_.size() - 1;
        const std::uint64_t h = hashOf(key);
        const std::uint8_t tag = tagOf(h);
        std::size_t i = static_cast<std::size_t>(h) & mask;
        // Word-at-a-time probe mirroring findSlot; the first empty byte
        // is the insertion point.
        const std::uint8_t *f = filled_.data();
        while (i + 8 <= filled_.size()) {
            const std::uint64_t word = swarLoad(f + i);
            const std::uint64_t mz = swarMatchMask(word, 0);
            std::uint64_t mt = swarMatchMask(word, tag);
            if (mz)
                mt &= (mz & -mz) - 1;
            while (mt) {
                const std::size_t c =
                    i + static_cast<std::size_t>(std::countr_zero(mt)) / 8;
                if (slots_[c].first == key)
                    return c;
                mt &= mt - 1;
            }
            if (mz) {
                i += static_cast<std::size_t>(std::countr_zero(mz)) / 8;
                filled_[i] = tag;
                std::construct_at(&slots_[i], key, V{});
                ++size_;
                return i;
            }
            i += 8;
        }
        i &= mask;   // the word walk may stop exactly at the array end
        while (filled_[i]) {
            if (filled_[i] == tag && slots_[i].first == key)
                return i;
            i = (i + 1) & mask;
        }
        filled_[i] = tag;
        std::construct_at(&slots_[i], key, V{});
        ++size_;
        return i;
    }

    /** Backward-shift deletion: no tombstones, probe runs stay minimal. */
    void
    eraseSlot(std::size_t i)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (!filled_[j])
                break;
            // Move j's element into the hole at i unless its home lies
            // cyclically within (i, j] — then the hole does not break
            // its probe path and it must stay.
            const std::size_t home = homeOf(slots_[j].first);
            if (((j - home) & mask) >= ((j - i) & mask)) {
                slots_[i] = std::move(slots_[j]);
                filled_[i] = filled_[j];
                i = j;
            }
        }
        filled_[i] = 0;
        --size_;
    }

    /** Grow to new_cap slots. Only the occupancy bytes are zeroed; each
     *  slot is written when a key lands in it. */
    void
    rehash(std::size_t new_cap)
    {
        UninitVector<value_type> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_filled = std::move(filled_);
        slots_.resize(new_cap);
        filled_.assign(new_cap, 0);
        const std::size_t mask = new_cap - 1;
        for (std::size_t s = 0; s < old_slots.size(); ++s) {
            if (!old_filled[s])
                continue;
            std::size_t i = homeOf(old_slots[s].first);
            while (filled_[i])
                i = (i + 1) & mask;
            filled_[i] = old_filled[s];
            std::construct_at(&slots_[i], std::move(old_slots[s]));
        }
    }

    UninitVector<value_type> slots_;    ///< read only where filled_ != 0
    std::vector<std::uint8_t> filled_;
    std::size_t size_ = 0;
};

/** Open-addressing hash set over an integer-like key. */
template <typename K>
class FlatSet
{
  public:
    std::size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void reserve(std::size_t n) { map_.reserve(n); }
    void clear() { map_.clear(); }

    bool contains(const K &key) const { return map_.contains(key); }

    /** @return whether the key was newly inserted */
    bool
    insert(const K &key)
    {
        return map_.emplace(key, Unit{}).second;
    }

    /** @return whether the key was present */
    bool erase(const K &key) { return map_.erase(key); }

    /** All members in ascending order (deterministic iteration). */
    std::vector<K> sortedKeys() const { return map_.sortedKeys(); }

  private:
    struct Unit
    {
    };

    FlatMap<K, Unit> map_;
};

} // namespace pipm

#endif // PIPM_COMMON_FLAT_MAP_HH
