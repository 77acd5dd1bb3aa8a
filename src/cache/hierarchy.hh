/**
 * @file
 * Per-host cache hierarchy: one private L1 per core plus an inclusive
 * shared LLC.
 *
 * The local coherence directory of Fig. 2 is modelled as the LLC's tag
 * metadata: because the hierarchy is inclusive, the set of lines a host
 * caches equals its LLC content, and the host-level coherence state
 * (HostState) is stored alongside each LLC line. Lines in the PIPM I'
 * state live in local DRAM, not in any cache, so they consume no
 * space here (see coherence/state.hh).
 *
 * The hierarchy is purely functional-plus-occupancy: callers charge hit
 * latencies from the config and drive coherence transactions on misses.
 * Each line carries a 64-bit data token so that integration tests can
 * check the single-writer-multiple-reader and data-value invariants.
 */

#ifndef PIPM_CACHE_HIERARCHY_HH
#define PIPM_CACHE_HIERARCHY_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/set_assoc.hh"
#include "coherence/state.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pipm
{

/** Where a lookup was satisfied. */
enum class HitLevel : std::uint8_t { l1, llc, miss };

/** The cache hierarchy of a single host. */
class CacheHierarchy
{
  public:
    /** A line leaving the LLC (capacity eviction or invalidation). */
    struct Eviction
    {
        LineAddr line = 0;
        HostState state = HostState::I;
        bool dirty = false;
        std::uint64_t data = 0;
    };

    /** Outcome of a lookup. */
    struct LookupResult
    {
        HitLevel level = HitLevel::miss;
        HostState state = HostState::I;   ///< host-level state (I on miss)
    };

    /** Outcome of a fused cachedAccess (probe + completion). */
    struct CachedAccess
    {
        HitLevel level = HitLevel::miss;
        HostState state = HostState::I;   ///< state at probe time (I on miss)
        std::uint64_t data = 0;           ///< read data (valid on hits)
        bool completed = false;           ///< write applied (state was M/ME)
    };

    CacheHierarchy(const SystemConfig &cfg, std::uint64_t seed);

    /**
     * Probe the hierarchy for a demand access. Updates replacement state
     * on hits but performs no fills, dirty-marking or state changes.
     */
    LookupResult lookup(CoreId core, LineAddr line);

    /**
     * Fused demand access for the hit path (DESIGN.md §9): one scan of
     * the LLC and one of the core's L1 resolve the hit level, refill the
     * L1 on an LLC hit, and complete the read (data out) or the write
     * (dirty + data + cross-L1 invalidation) when the line is writable.
     * A write that finds a non-writable state is left for the caller
     * (`completed` false: upgrade path or recordWrite panic). Misses
     * only count and return. State evolution — counters, replacement
     * order, metadata — is exactly that of the historical
     * lookup/dataOf/fill/recordWrite sequence, with redundant same-entry
     * replacement touches collapsed (order-preserving under LRU).
     */
    CachedAccess cachedAccess(CoreId core, LineAddr line, bool isWrite,
                              std::uint64_t wdata);

    /**
     * Fused fill-and-complete for the miss path: insert the resolved
     * line into LLC + L1 and apply the write (or leave the fill data for
     * the read) in the same scans. Equivalent to fill() followed by
     * recordWrite() on a write; the caller still handles the returned
     * LLC capacity eviction.
     */
    std::optional<Eviction> fillAccess(CoreId core, LineAddr line,
                                       HostState state, bool dirty,
                                       std::uint64_t data, bool isWrite,
                                       std::uint64_t wdata);

    /**
     * Complete a write hit: mark the line dirty, update its data token and
     * invalidate any other core's L1 copy (intra-host coherence).
     * The caller must have upgraded the host state to M/ME first.
     */
    void recordWrite(CoreId core, LineAddr line, std::uint64_t data);

    /**
     * Fill a line into the LLC and the requesting core's L1 after a miss
     * is resolved.
     * @return the LLC capacity eviction caused by the fill, if any,
     *         which the caller must handle (writeback / migration).
     */
    std::optional<Eviction> fill(CoreId core, LineAddr line,
                                 HostState state, bool dirty,
                                 std::uint64_t data);

    /** Host-level state of a line (I if not cached). */
    HostState stateOf(LineAddr line) const;

    /** Change the host-level state of a cached line (up/downgrades). */
    void setState(LineAddr line, HostState state);

    /**
     * Remove a line everywhere in the host (remote invalidation or recall).
     * @return the line's content if it was cached
     */
    std::optional<Eviction> invalidateLine(LineAddr line);

    /** Data token of a cached line (panics if absent). */
    std::uint64_t dataOf(LineAddr line) const;

    /** Mark a cached line clean (after its dirty data was written back). */
    void markClean(LineAddr line);

    /** Drop every cached line, returning dirty ones for writeback. */
    std::vector<Eviction> flushAll();

    Cycles l1RoundTrip() const { return l1Rt_; }
    Cycles llcRoundTrip() const { return llcRt_; }

    StatGroup &stats() { return stats_; }

    Counter l1Hits;
    Counter llcHits;
    Counter misses;
    Counter llcEvictions;

  private:
    struct L1Meta
    {
        bool dirty = false;
    };

    struct LlcMeta
    {
        HostState state = HostState::I;
        bool dirty = false;
        /**
         * Conservative L1-presence mask: bit c set means core c's L1 MAY
         * hold the line (set on every L1 fill, cleared on invalidation;
         * silent L1 capacity evictions leave stale bits). A clear bit
         * proves absence, so cross-L1 invalidations skip those scans.
         * 32 bits keeps this payload at 16 bytes, so a way's SetAssoc
         * record (key, replacement word, payload) is 32 bytes, two to a
         * cache line, where a 64-bit mask would make it 40.
         */
        std::uint32_t l1Mask = 0;
        std::uint64_t data = 0;
    };

    /**
     * Invalidate a line from every L1 whose mask bit is set, except
     * `except` (-1: all); clears the processed bits.
     */
    void dropFromL1s(LineAddr line, int except, std::uint32_t &mask);

    unsigned numCores_;
    Cycles l1Rt_;
    Cycles llcRt_;
    std::vector<SetAssoc<L1Meta>> l1s_;   ///< one per core
    SetAssoc<LlcMeta> llc_;
    StatGroup stats_;
};

// The fused access primitives live in the header: they are the hottest
// functions in the whole simulator (every demand reference lands here),
// and inlining the scans into the protocol code is worth several
// percent of end-to-end throughput (DESIGN.md §9).

inline void
CacheHierarchy::dropFromL1s(LineAddr line, int except, std::uint32_t &mask)
{
    std::uint32_t pending = mask;
    if (except >= 0)
        pending &= ~(1u << except);
    while (pending) {
        const unsigned c =
            static_cast<unsigned>(std::countr_zero(pending));
        pending &= pending - 1;
        l1s_[c].invalidate(line);
        mask &= ~(1u << c);
    }
}

inline CacheHierarchy::CachedAccess
CacheHierarchy::cachedAccess(CoreId core, LineAddr line, bool isWrite,
                             std::uint64_t wdata)
{
    panic_if(core >= numCores_, "core id ", core, " out of range");
    CachedAccess out;
    LlcMeta *m = llc_.lookup(line);
    if (!m) {
        // Inclusive hierarchy: absent from LLC implies absent from L1s.
        misses.inc();
        return out;
    }
    out.state = m->state;
    // L1 hit: replacement touch, as lookup() did. L1 miss under an LLC
    // hit: refill the L1 (the historical lookup + fill pair).
    std::optional<SetAssoc<L1Meta>::Entry> l1_victim;   // silent L1 drop
    bool l1_resident = false;
    L1Meta *l1 =
        l1s_[core].acquire(line, L1Meta{false}, l1_victim, l1_resident);
    if (l1_resident) {
        l1Hits.inc();
        out.level = HitLevel::l1;
    } else {
        llcHits.inc();
        out.level = HitLevel::llc;
    }
    m->l1Mask |= 1u << core;
    if (isWrite) {
        if (m->state == HostState::M || m->state == HostState::ME) {
            m->dirty = true;
            m->data = wdata;
            dropFromL1s(line, static_cast<int>(core), m->l1Mask);
            l1->dirty = true;
            out.completed = true;
        }
    } else {
        out.data = m->data;
    }
    return out;
}

inline std::optional<CacheHierarchy::Eviction>
CacheHierarchy::fillAccess(CoreId core, LineAddr line, HostState state,
                           bool dirty, std::uint64_t data, bool isWrite,
                           std::uint64_t wdata)
{
    panic_if(state == HostState::I, "filling line ", line, " in state I");
    std::optional<Eviction> out;
    std::optional<SetAssoc<LlcMeta>::Entry> victim;
    bool resident = false;
    LlcMeta *m =
        llc_.acquire(line, LlcMeta{state, dirty, 0, data}, victim, resident);
    if (resident) {
        // Already resident (e.g. upgrade fill): refresh state/data.
        m->state = state;
        m->dirty = m->dirty || dirty;
        m->data = data;
    } else if (victim) {
        llcEvictions.inc();
        dropFromL1s(victim->key, -1, victim->meta.l1Mask);
        out = Eviction{victim->key, victim->meta.state, victim->meta.dirty,
                       victim->meta.data};
    }
    std::optional<SetAssoc<L1Meta>::Entry> l1_victim;   // silent L1 drop
    bool l1_resident = false;
    L1Meta *l1 = l1s_[core].insertOrGet(line, L1Meta{false}, l1_victim,
                                        l1_resident);
    m->l1Mask |= 1u << core;
    if (isWrite) {
        panic_if(m->state != HostState::M && m->state != HostState::ME,
                 "write to line ", line, " in non-writable state ",
                 toString(m->state));
        m->dirty = true;
        m->data = wdata;
        dropFromL1s(line, static_cast<int>(core), m->l1Mask);
        if (l1_resident) {
            // Parity with the historical pair (insertIfAbsent hit, then
            // recordWrite's lookup): the resident entry got one touch.
            l1s_[core].lookup(line);
        }
        l1->dirty = true;
    }
    return out;
}

} // namespace pipm

#endif // PIPM_CACHE_HIERARCHY_HH
