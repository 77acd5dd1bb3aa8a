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
 * Storage is two arrays. The tag strip is set-major, one byte per way
 * (0 = empty, else a 7-bit hash fingerprint with the top bit set), so
 * the way scan of a lookup reads a 16-byte strip — one cache line for a
 * 16-way set, eight ways per SWAR step. Each way's key, replacement word
 * and payload sit together in one record, and the records are stored
 * way-major: way w of set s is record `(w << log2(sets)) + s`. A scan
 * reads a record only on a fingerprint match (~1/128 false-positive
 * rate per way), and a hit then finds the replacement word and payload
 * in the record line it already loaded. Fills take the lowest free way,
 * so a sparse array (the device directory, at most ~6% live) keeps its
 * live records in the low-way regions, a few MB, and never touches the
 * rest. Lookups dominate the simulator's hot path (tens of millions of
 * directory and LLC probes per run), which makes the lines touched per
 * probe a first-order throughput term; see DESIGN.md §9.
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
        : sets_(sets), ways_(ways),
          setBits_(static_cast<unsigned>(std::countr_zero(sets))),
          repl_(policy, seed),
          tags_(static_cast<std::size_t>(sets) * ways, 0),
          recs_(static_cast<std::size_t>(sets) * ways)
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
        const std::size_t r = find(key);
        if (r == npos)
            return nullptr;
        Way &rec = recs_[r];
        rec.repl = repl_.onHit(rec.repl, ++useClock_);
        return &rec.meta;
    }

    /** Look up without touching replacement state (probe). */
    const Meta *
    probe(std::uint64_t key) const
    {
        const std::size_t r = find(key);
        return r == npos ? nullptr : &recs_[r].meta;
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
        const std::size_t set = setOf(h);
        const std::uint8_t fp = fpOf(h);
        unsigned free_way;
        panic_if(scanSet(set, fp, key, free_way) != npos,
                 "duplicate insert of key ", key);
        std::optional<Entry> evicted;
        place(set, free_way, fp, key, std::move(meta), evicted);
        return evicted;
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
        const std::size_t set = setOf(h);
        const std::uint8_t fp = fpOf(h);
        unsigned free_way;
        if (scanSet(set, fp, key, free_way) != npos)
            return std::nullopt;
        std::optional<Entry> evicted;
        place(set, free_way, fp, key, std::move(meta), evicted);
        return evicted;
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
        const std::size_t set = setOf(h);
        const std::uint8_t fp = fpOf(h);
        unsigned free_way;
        const std::size_t r = scanSet(set, fp, key, free_way);
        if (r != npos) {
            Way &rec = recs_[r];
            rec.repl = repl_.onHit(rec.repl, ++useClock_);
            resident = true;
            return &rec.meta;
        }
        resident = false;
        return &place(set, free_way, fp, key, std::move(meta), evicted).meta;
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
        const std::size_t set = setOf(h);
        const std::uint8_t fp = fpOf(h);
        unsigned free_way;
        const std::size_t r = scanSet(set, fp, key, free_way);
        if (r != npos) {
            resident = true;
            return &recs_[r].meta;
        }
        resident = false;
        return &place(set, free_way, fp, key, std::move(meta), evicted).meta;
    }

    /** Remove a key if present; returns its entry. */
    std::optional<Entry>
    invalidate(std::uint64_t key)
    {
        const std::size_t r = find(key);
        if (r == npos)
            return std::nullopt;
        // The record index holds both halves: set in the low bits, way
        // above them.
        tags_[(r & (sets_ - 1)) * ways_ + (r >> setBits_)] = 0;
        return Entry{recs_[r].key, recs_[r].meta};
    }

    /**
     * Apply fn to every valid entry (e.g. flush, stats, invariants), in
     * slot order: set by set, ways ascending within a set.
     */
    void
    forEach(const std::function<void(const Entry &)> &fn) const
    {
        const std::uint8_t *tags = tags_.data();
        for (std::size_t set = 0; set < sets_; ++set, tags += ways_) {
            for (unsigned w = 0; w < ways_; ++w) {
                if (tags[w]) {
                    const Way &rec = recs_[recOf(set, w)];
                    fn(Entry{rec.key, rec.meta});
                }
            }
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
            // Slot order is set-major: map the slot to (set, way).
            const auto way = static_cast<unsigned>(slot % ways_);
            const std::uint64_t key = recs_[recOf(slot / ways_, way)].key;
            if (fn(key))
                return key;
        }
        return std::nullopt;
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    std::uint64_t capacity() const { return std::uint64_t(sets_) * ways_; }

  private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    static constexpr unsigned noWay = static_cast<unsigned>(-1);

    /** One way's record: everything but the tag, in one place. */
    struct Way
    {
        std::uint64_t key;        ///< confirmed on tag match
        ReplWord repl;            ///< touched on hit, fill and eviction
        [[no_unique_address]] Meta meta;
    };

    /** Multiplicative hash; spreads page-strided keys across sets. */
    static std::uint64_t
    hashOf(std::uint64_t key)
    {
        return key * 0x9e3779b97f4a7c15ull;
    }

    /** The key's set (hash bits 32..). */
    std::size_t
    setOf(std::uint64_t h) const
    {
        return static_cast<std::size_t>((h >> 32) & (sets_ - 1));
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

    /** Record index of way `way` of set `set`: way-major, set below. */
    std::size_t
    recOf(std::size_t set, unsigned way) const
    {
        return (static_cast<std::size_t>(way) << setBits_) + set;
    }

    /**
     * One pass over a set's tag strip, eight ways per step: the record
     * holding `key` (npos if absent) and, through `free_way`, the lowest
     * empty way (noWay if the set is full). Exactly the way-order
     * semantics of the byte-at-a-time loop it replaces.
     */
    std::size_t
    scanSet(std::size_t set, std::uint8_t fp, std::uint64_t key,
            unsigned &free_way) const
    {
        const std::uint8_t *tags = tags_.data() + set * ways_;
        free_way = noWay;
        unsigned w = 0;
        for (; w + 8 <= ways_; w += 8) {
            const std::uint64_t word = swarLoad(tags + w);
            std::uint64_t m = swarMatchMask(word, fp);
            while (m) {
                const unsigned c =
                    w + static_cast<unsigned>(std::countr_zero(m)) / 8;
                const std::size_t r = recOf(set, c);
                if (recs_[r].key == key) {
                    // A hit never consults free_way; leaving it at the
                    // lowest empty way of *earlier* words only is fine.
                    return r;
                }
                m &= m - 1;
            }
            if (free_way == noWay) {
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
                if (free_way == noWay)
                    free_way = w;
            } else if (t == fp && recs_[recOf(set, w)].key == key) {
                return recOf(set, w);
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

    /** Record index of a resident key, or npos. */
    std::size_t
    find(std::uint64_t key) const
    {
        const std::uint64_t h = hashOf(key);
        const std::size_t set = setOf(h);
        const std::uint8_t fp = fpOf(h);
        const std::uint8_t *tags = tags_.data() + set * ways_;
        unsigned w = 0;
        for (; w + 8 <= ways_; w += 8) {
            std::uint64_t m = swarMatchMask(swarLoad(tags + w), fp);
            while (m) {
                const std::size_t r = recOf(
                    set,
                    w + static_cast<unsigned>(std::countr_zero(m)) / 8);
                if (recs_[r].key == key)
                    return r;
                m &= m - 1;
            }
        }
        for (; w < ways_; ++w) {
            if (tags[w] == fp && recs_[recOf(set, w)].key == key)
                return recOf(set, w);
        }
        return npos;
    }

    /** Tag the way and build its record in place. */
    Way &
    fill(std::size_t set, unsigned way, std::uint8_t fp, std::uint64_t key,
         Meta meta)
    {
        tags_[set * ways_ + way] = fp;
        return *std::construct_at(
            &recs_[recOf(set, way)],
            Way{key, repl_.onFill(++useClock_), std::move(meta)});
    }

    /** The policy's victim way of a full set. */
    unsigned
    victimWay(std::size_t set)
    {
        // The set's records are `sets_` apart.
        Way *recs = recs_.data() + set;
        const std::size_t stride = std::size_t{1} << setBits_;
        if (repl_.policy() == ReplPolicy::lru) {
            // LRU never mutates the words while choosing, so the argmin
            // runs straight over the stored words (same first-minimum
            // tie-break as Replacement::victim) — no scratch copy, no
            // out-of-line call on the capacity-fill hot path.
            unsigned victim = 0;
            ReplWord oldest = recs[0].repl;
            for (unsigned w = 1; w < ways_; ++w) {
                const ReplWord word = recs[w * stride].repl;
                if (word < oldest) {
                    oldest = word;
                    victim = w;
                }
            }
            return victim;
        }
        // Associativity is bounded, so the scratch words live on the
        // stack (hot path: one per capacity fill).
        panic_if(ways_ > maxWays, "associativity above ", maxWays);
        ReplWord words[maxWays];
        for (unsigned w = 0; w < ways_; ++w)
            words[w] = recs[w * stride].repl;
        const auto victim = static_cast<unsigned>(
            repl_.victim(std::span<ReplWord>(words, ways_)));
        // SRRIP ages the whole set while choosing; write them back.
        if (repl_.policy() == ReplPolicy::srrip) {
            for (unsigned w = 0; w < ways_; ++w)
                recs[w * stride].repl = words[w];
        }
        return victim;
    }

    /**
     * Fill the key into `free_way` or, when the set is full (noWay),
     * into the policy victim's way, handing the displaced entry to
     * `evicted`. Returns the new entry's record.
     */
    Way &
    place(std::size_t set, unsigned free_way, std::uint8_t fp,
          std::uint64_t key, Meta meta, std::optional<Entry> &evicted)
    {
        unsigned way = free_way;
        if (way == noWay) {
            way = victimWay(set);
            const Way &old = recs_[recOf(set, way)];
            evicted = Entry{old.key, old.meta};
        }
        return fill(set, way, fp, key, std::move(meta));
    }

    unsigned sets_;
    unsigned ways_;
    unsigned setBits_;   ///< log2(sets_): the set field of a record index
    Replacement repl_;
    std::uint64_t useClock_ = 0;
    // Only tags_ is zeroed at construction. A record's key is read only
    // after its way's tag matched, and its replacement word and payload
    // only on such a hit or once every way of the set is filled (the
    // eviction), so no record is read before fill() builds it. Clearing
    // them would cost set-up time and fault in every page of the record
    // array, where a sparse array only ever touches its low-way regions.
    std::vector<std::uint8_t> tags_;   ///< set-major; 0 = empty, else fp
    UninitVector<Way> recs_;           ///< way-major; built by fill()
};

} // namespace pipm

#endif // PIPM_CACHE_SET_ASSOC_HH
