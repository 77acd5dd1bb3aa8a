/**
 * @file
 * Generic set-associative array used for caches, coherence directories and
 * remapping caches.
 *
 * The array is keyed by an arbitrary 64-bit key (a line address for caches,
 * a page frame for remapping caches) and stores per-entry metadata of type
 * Meta. Timing is not modelled here; callers charge their own hit/miss
 * latencies. The simulator resolves each miss atomically, so no MSHRs are
 * needed at this layer — memory-level parallelism is modelled by the core's
 * instruction window instead (see sim/core.hh).
 *
 * Storage is structure-of-arrays with one-byte tag fingerprints: each way
 * has a tag byte (0 = empty, else a 7-bit hash fingerprint with the top
 * bit set), so the way scan of a lookup reads a 16-byte tag strip — one
 * cache line for a 16-way set, eight ways per SWAR step — and touches the
 * full 8-byte keys only on a fingerprint match (~1/128 false-positive
 * rate per way). Replacement words and Meta payloads live in separate
 * arrays that only hits and fills touch. Lookups dominate the simulator's
 * hot path (tens of millions of directory and LLC probes per run), which
 * makes the scan footprint a first-order throughput term; see DESIGN.md
 * §9.
 */

#ifndef PIPM_CACHE_SET_ASSOC_HH
#define PIPM_CACHE_SET_ASSOC_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "cache/replacement.hh"
#include "common/logging.hh"
#include "common/swar.hh"
#include "common/uninit_vector.hh"

namespace pipm
{

/**
 * A set-associative array of Meta entries keyed by 64-bit keys.
 * @tparam Meta per-entry payload (default-constructible, trivially
 *         copyable and trivially destructible: payload storage is left
 *         unwritten until a fill constructs the entry in place)
 */
template <typename Meta>
class SetAssoc
{
    static_assert(std::is_trivially_copyable_v<Meta> &&
                      std::is_trivially_destructible_v<Meta>,
                  "SetAssoc payloads are built on fill, never destroyed");

  public:
    /** Upper bound on associativity (stack scratch sizing). */
    static constexpr unsigned maxWays = 64;

    /** One resident entry, exposed to callers on hit/eviction. */
    struct Entry
    {
        std::uint64_t key = 0;
        Meta meta{};
    };

    /**
     * @param sets number of sets (power of two)
     * @param ways associativity
     * @param policy replacement policy
     * @param seed RNG seed for random replacement
     */
    SetAssoc(unsigned sets, unsigned ways,
             ReplPolicy policy = ReplPolicy::lru, std::uint64_t seed = 1)
        : sets_(sets), ways_(ways), repl_(policy, seed),
          tags_(static_cast<std::size_t>(sets) * ways, 0),
          keys_(std::make_unique_for_overwrite<std::uint64_t[]>(
              static_cast<std::size_t>(sets) * ways)),
          replWords_(std::make_unique_for_overwrite<ReplWord[]>(
              static_cast<std::size_t>(sets) * ways)),
          meta_(static_cast<std::size_t>(sets) * ways)
    {
        panic_if(sets == 0 || (sets & (sets - 1)) != 0,
                 "set count must be a nonzero power of two, got ", sets);
        panic_if(ways == 0, "associativity must be positive");
    }

    /** Build with a total capacity in entries instead of explicit sets. */
    static SetAssoc
    withCapacity(std::uint64_t entries, unsigned ways,
                 ReplPolicy policy = ReplPolicy::lru, std::uint64_t seed = 1)
    {
        std::uint64_t sets = entries / ways;
        // Round down to a power of two; a slightly smaller cache is the
        // honest direction for a capacity that does not divide evenly.
        std::uint64_t p2 = 1;
        while (p2 * 2 <= sets)
            p2 *= 2;
        return SetAssoc(static_cast<unsigned>(p2 ? p2 : 1), ways, policy,
                        seed);
    }

    /** Look up a key; updates replacement state on hit. */
    Meta *
    lookup(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == npos)
            return nullptr;
        replWords_[i] = repl_.onHit(replWords_[i], ++useClock_);
        return &meta_[i];
    }

    /** Look up without touching replacement state (probe). */
    const Meta *
    probe(std::uint64_t key) const
    {
        const std::size_t i = find(key);
        return i == npos ? nullptr : &meta_[i];
    }

    /**
     * Insert a key, evicting a victim from its set if full.
     * @param key the new key (must not already be present)
     * @param meta payload for the new entry
     * @return the evicted entry, if any
     */
    std::optional<Entry>
    insert(std::uint64_t key, Meta meta)
    {
        // One pass over the set checks the no-duplicate invariant and
        // finds a free way at the same time.
        const std::uint64_t h = hashOf(key);
        const std::size_t base = baseOf(h);
        const std::uint8_t fp = fpOf(h);
        std::size_t free_way;
        panic_if(scanSet(base, fp, key, free_way) != npos,
                 "duplicate insert of key ", key);
        if (free_way != npos) {
            fill(base + free_way, fp, key, std::move(meta));
            return std::nullopt;
        }
        return evictAndFill(base, fp, key, std::move(meta));
    }

    /**
     * Insert a key unless it is already resident; the resident case
     * leaves the entry and its replacement state untouched.
     * @return the evicted entry, if the insert displaced one
     */
    std::optional<Entry>
    insertIfAbsent(std::uint64_t key, Meta meta)
    {
        const std::uint64_t h = hashOf(key);
        const std::size_t base = baseOf(h);
        const std::uint8_t fp = fpOf(h);
        std::size_t free_way;
        if (scanSet(base, fp, key, free_way) != npos)
            return std::nullopt;
        if (free_way != npos) {
            fill(base + free_way, fp, key, std::move(meta));
            return std::nullopt;
        }
        return evictAndFill(base, fp, key, std::move(meta));
    }

    /**
     * Single-scan acquire: the resident entry after an onHit touch, or
     * the freshly inserted one (evicting if the set is full), in one way
     * scan. `resident` tells the caller which happened.
     * @param evicted receives the displaced entry, if any
     */
    Meta *
    acquire(std::uint64_t key, Meta meta, std::optional<Entry> &evicted,
            bool &resident)
    {
        const std::uint64_t h = hashOf(key);
        const std::size_t base = baseOf(h);
        const std::uint8_t fp = fpOf(h);
        std::size_t free_way;
        const std::size_t i = scanSet(base, fp, key, free_way);
        if (i != npos) {
            replWords_[i] = repl_.onHit(replWords_[i], ++useClock_);
            resident = true;
            return &meta_[i];
        }
        resident = false;
        std::size_t slot = 0;
        if (free_way != npos) {
            slot = base + free_way;
            fill(slot, fp, key, std::move(meta));
        } else {
            evicted = evictAndFill(base, fp, key, std::move(meta), &slot);
        }
        return &meta_[slot];
    }

    /**
     * Single-scan insertIfAbsent that also returns the entry: the
     * resident one untouched (no replacement-state update, matching
     * insertIfAbsent), or the freshly inserted one.
     * @param evicted receives the displaced entry, if any
     */
    Meta *
    insertOrGet(std::uint64_t key, Meta meta, std::optional<Entry> &evicted,
                bool &resident)
    {
        const std::uint64_t h = hashOf(key);
        const std::size_t base = baseOf(h);
        const std::uint8_t fp = fpOf(h);
        std::size_t free_way;
        const std::size_t i = scanSet(base, fp, key, free_way);
        if (i != npos) {
            resident = true;
            return &meta_[i];
        }
        resident = false;
        std::size_t slot = 0;
        if (free_way != npos) {
            slot = base + free_way;
            fill(slot, fp, key, std::move(meta));
        } else {
            evicted = evictAndFill(base, fp, key, std::move(meta), &slot);
        }
        return &meta_[slot];
    }

    /** Remove a key if present; returns its entry. */
    std::optional<Entry>
    invalidate(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == npos)
            return std::nullopt;
        tags_[i] = 0;
        return Entry{keys_[i], meta_[i]};
    }

    /** Apply fn to every valid entry (e.g. flush, stats, invariants). */
    void
    forEach(const std::function<void(const Entry &)> &fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i])
                fn(Entry{keys_[i], meta_[i]});
        }
    }

    /** Drop every entry without notifying anyone. */
    void
    clear()
    {
        std::fill(tags_.begin(), tags_.end(),
                  static_cast<std::uint8_t>(0));
    }

    /**
     * Number of valid entries: one SWAR pass over the tag strip (about
     * capacity / 8 word steps; no per-entry counter is kept, so fills
     * and invalidations stay as cheap as they are).
     */
    std::uint64_t
    occupancy() const
    {
        return countValid(0, tags_.size());
    }

    /**
     * Offer valid keys to `fn` in forEach slot order, rotated by `pick`,
     * until `fn` accepts one (returns true). The k-th offer is valid key
     * number `(pick + k) % occupancy()` in forEach order, with `pick + k`
     * wrapping at 2^64 as unsigned arithmetic does: exactly the order of
     * indexing a forEach-built vector at `(pick + k) % size`, without
     * building it. `fn` must not modify the array.
     * @return the accepted key, or nullopt when every key was rejected
     */
    template <typename Fn>
    std::optional<std::uint64_t>
    rotateFrom(std::uint64_t pick, Fn &&fn) const
    {
        const std::uint64_t n = occupancy();
        std::size_t slot = 0;
        std::uint64_t prev = 0;
        for (std::uint64_t k = 0; k < n; ++k) {
            const std::uint64_t idx = (pick + k) % n;
            // Step to the next valid slot only when the index does; the
            // wrap past n - 1 and the 2^64 wrap of pick + k (which
            // restarts at index 0 from anywhere) seek afresh.
            if (k == 0 || idx != prev + 1) {
                slot = nthValid(idx);
            } else {
                do {
                    ++slot;
                } while (tags_[slot] == 0);
            }
            prev = idx;
            if (fn(keys_[slot]))
                return keys_[slot];
        }
        return std::nullopt;
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    std::uint64_t capacity() const { return std::uint64_t(sets_) * ways_; }

  private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Multiplicative hash; spreads page-strided keys across sets. */
    static std::uint64_t
    hashOf(std::uint64_t key)
    {
        return key * 0x9e3779b97f4a7c15ull;
    }

    /** First slot of the key's set (hash bits 32..). */
    std::size_t
    baseOf(std::uint64_t h) const
    {
        return static_cast<std::size_t>((h >> 32) & (sets_ - 1)) * ways_;
    }

    /**
     * Tag fingerprint: hash bits 56..62 with the top bit forced so a
     * resident tag is never 0 (the empty marker). Disjoint from the
     * set-index bits up to 2^24 sets.
     */
    static std::uint8_t
    fpOf(std::uint64_t h)
    {
        return static_cast<std::uint8_t>((h >> 56) | 0x80u);
    }

    /**
     * One pass over a set's tag strip, eight ways per step: the way
     * holding `key` (npos if absent) and, through `free_way`, the lowest
     * empty way (npos if the set is full). Exactly the way-order
     * semantics of the byte-at-a-time loop it replaces.
     */
    std::size_t
    scanSet(std::size_t base, std::uint8_t fp, std::uint64_t key,
            std::size_t &free_way) const
    {
        const std::uint8_t *tags = tags_.data() + base;
        const std::uint64_t *keys = keys_.get() + base;
        free_way = npos;
        unsigned w = 0;
        for (; w + 8 <= ways_; w += 8) {
            const std::uint64_t word = swarLoad(tags + w);
            std::uint64_t m = swarMatchMask(word, fp);
            while (m) {
                const unsigned c =
                    w + static_cast<unsigned>(std::countr_zero(m)) / 8;
                if (keys[c] == key) {
                    // A hit never consults free_way; leaving it at the
                    // lowest empty way of *earlier* words only is fine.
                    return base + c;
                }
                m &= m - 1;
            }
            if (free_way == npos) {
                const std::uint64_t z = swarMatchMask(word, 0);
                if (z) {
                    free_way =
                        w + static_cast<unsigned>(std::countr_zero(z)) / 8;
                }
            }
        }
        for (; w < ways_; ++w) {
            const std::uint8_t t = tags[w];
            if (t == 0) {
                if (free_way == npos)
                    free_way = w;
            } else if (t == fp && keys[w] == key) {
                return base + w;
            }
        }
        return npos;
    }

    /** Each byte's lowest bit: the lanes of the SWAR counts below. */
    static constexpr std::uint64_t laneOnes = 0x0101010101010101ull;

    /**
     * Valid tags in slots [from, to). A resident tag always has bit 7
     * set, so `(word >> 7) & laneOnes` is one per valid tag, summed in
     * byte lanes and folded every 255 words, before a lane can
     * overflow. No popcount: the build targets baseline x86-64.
     */
    std::uint64_t
    countValid(std::size_t from, std::size_t to) const
    {
        const std::uint8_t *tags = tags_.data();
        std::uint64_t n = 0;
        std::size_t i = from;
        while (to - i >= 8) {
            const std::size_t words =
                std::min<std::size_t>((to - i) / 8, 255);
            std::uint64_t lanes = 0;
            for (std::size_t w = 0; w < words; ++w)
                lanes += (swarLoad(tags + i + 8 * w) >> 7) & laneOnes;
            i += 8 * words;
            // Byte lanes to 16-bit lanes, then one multiply sums them.
            const std::uint64_t pairs =
                (lanes & 0x00ff00ff00ff00ffull) +
                ((lanes >> 8) & 0x00ff00ff00ff00ffull);
            n += (pairs * 0x0001000100010001ull) >> 48;
        }
        for (; i < to; ++i)
            n += tags[i] >> 7;
        return n;
    }

    /**
     * Slot of the n-th valid tag (0-based; n < occupancy()): skip whole
     * 255-word blocks by their countValid, then words by one count per
     * 8-tag word, then the tags of the word that holds it.
     */
    std::size_t
    nthValid(std::uint64_t n) const
    {
        const std::uint8_t *tags = tags_.data();
        const std::size_t end = tags_.size();
        constexpr std::size_t blockTags = 255 * 8;
        std::size_t i = 0;
        for (;;) {
            const std::size_t to = std::min(i + blockTags, end);
            const std::uint64_t c = countValid(i, to);
            if (n < c)
                break;
            n -= c;
            i = to;
        }
        for (; end - i >= 8; i += 8) {
            std::uint64_t m = swarLoad(tags + i) & (laneOnes << 7);
            const std::uint64_t c = ((m >> 7) * laneOnes) >> 56;
            if (n < c) {
                for (; n > 0; --n)
                    m &= m - 1;
                return i + static_cast<std::size_t>(std::countr_zero(m)) / 8;
            }
            n -= c;
        }
        for (;; ++i) {
            if (tags[i] != 0 && n-- == 0)
                return i;
        }
    }

    /** Index of a resident key's way slot, or npos. */
    std::size_t
    find(std::uint64_t key) const
    {
        const std::uint64_t h = hashOf(key);
        const std::size_t base = baseOf(h);
        const std::uint8_t fp = fpOf(h);
        const std::uint8_t *tags = tags_.data() + base;
        const std::uint64_t *keys = keys_.get() + base;
        unsigned w = 0;
        for (; w + 8 <= ways_; w += 8) {
            std::uint64_t m = swarMatchMask(swarLoad(tags + w), fp);
            while (m) {
                const unsigned c =
                    w + static_cast<unsigned>(std::countr_zero(m)) / 8;
                if (keys[c] == key)
                    return base + c;
                m &= m - 1;
            }
        }
        for (; w < ways_; ++w) {
            if (tags[w] == fp && keys[w] == key)
                return base + w;
        }
        return npos;
    }

    void
    fill(std::size_t i, std::uint8_t fp, std::uint64_t key, Meta meta)
    {
        tags_[i] = fp;
        replWords_[i] = repl_.onFill(++useClock_);
        keys_[i] = key;
        std::construct_at(&meta_[i], std::move(meta));
    }

    /** Evict the set's policy victim and fill the new key in its place. */
    std::optional<Entry>
    evictAndFill(std::size_t base, std::uint8_t fp, std::uint64_t key,
                 Meta meta, std::size_t *slot_out = nullptr)
    {
        std::size_t victim_way;
        if (repl_.policy() == ReplPolicy::lru) {
            // LRU never mutates the words while choosing, so the argmin
            // runs straight over the stored strip (same first-minimum
            // tie-break as Replacement::victim) — no scratch copy, no
            // out-of-line call on the capacity-fill hot path.
            const ReplWord *words = replWords_.get() + base;
            victim_way = 0;
            for (unsigned w = 1; w < ways_; ++w) {
                if (words[w] < words[victim_way])
                    victim_way = w;
            }
        } else {
            // Associativity is bounded, so the scratch words live on the
            // stack (hot path: one per capacity fill).
            panic_if(ways_ > maxWays, "associativity above ", maxWays);
            ReplWord words[maxWays];
            for (unsigned w = 0; w < ways_; ++w)
                words[w] = replWords_[base + w];
            victim_way = repl_.victim(std::span<ReplWord>(words, ways_));
            // SRRIP ages the whole set while choosing; write them back.
            if (repl_.policy() == ReplPolicy::srrip) {
                for (unsigned w = 0; w < ways_; ++w)
                    replWords_[base + w] = words[w];
            }
        }
        const std::size_t victim = base + victim_way;
        Entry evicted{keys_[victim], std::move(meta_[victim])};
        fill(victim, fp, key, std::move(meta));
        if (slot_out)
            *slot_out = victim;
        return evicted;
    }

    unsigned sets_;
    unsigned ways_;
    Replacement repl_;
    std::uint64_t useClock_ = 0;
    // Only tags_ is zeroed at construction. A key or payload is read only
    // after its way's tag matched (or, for the victim's, once
    // evictAndFill finds every way of the set filled), and a replacement
    // word only on a hit or in that same full-set case — so none of the
    // other three arrays is ever read before fill() writes it, and
    // clearing them would only cost set-up time (megabytes for the
    // device directory).
    std::vector<std::uint8_t> tags_;     ///< 0 = empty, else fingerprint
    std::unique_ptr<std::uint64_t[]> keys_;   ///< confirmed on tag match
    std::unique_ptr<ReplWord[]> replWords_;   ///< touched on hit/fill only
    UninitVector<Meta> meta_;            ///< built in place by fill()
};

} // namespace pipm

#endif // PIPM_CACHE_SET_ASSOC_HH
