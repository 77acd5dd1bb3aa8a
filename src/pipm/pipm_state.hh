/**
 * @file
 * Authoritative PIPM remapping state: the in-memory global remapping table
 * on the CXL node, the per-host local remapping tables, and the
 * majority-vote migration policy that drives them (§4.2).
 *
 * The global table records, per CXL-DSM page: the current host ID (where
 * the page is partially migrated, if anywhere), the candidate host ID and
 * the Boyer-Moore-style global counter. The local table of each host
 * records, per page partially migrated to that host: the local page frame
 * (allocated by the OS/hypervisor), the 4-bit local counter, and — in this
 * simulator — the per-line migrated bitmap, which is the aggregate of the
 * per-line in-memory bits of §4.3.2 (one 64-bit word per 4 KB page).
 *
 * The same class also implements the HW-static ablation (§5.1.3): the
 * incremental-migration mechanism with a fixed page->host mapping instead
 * of the adaptive vote.
 */

#ifndef PIPM_PIPM_STATE_HH
#define PIPM_PIPM_STATE_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pipm
{

class AddressSpace;

/** Entry of the global remapping table (2 bytes in hardware). */
struct GlobalRemapEntry
{
    HostId curHost = invalidHost;    ///< 5-bit current host ID
    HostId candHost = invalidHost;   ///< 5-bit candidate host ID
    std::uint8_t counter = 0;        ///< 6-bit majority-vote counter
};

/** Entry of a host's local remapping table (4 bytes in hardware). */
struct LocalRemapEntry
{
    PageFrame localPfn = 0;          ///< 28-bit local frame
    std::uint8_t counter = 0;        ///< 4-bit local counter
    std::uint64_t lineBitmap = 0;    ///< per-line in-memory bits (64 lines)
};

/** How partial-migration destinations are chosen. */
enum class PipmMode : std::uint8_t
{
    vote,        ///< full PIPM: majority-vote promotion and revocation
    staticMap    ///< HW-static ablation: fixed page % numHosts mapping
};

/** Outcome of feeding one device-visible access into the vote. */
struct VoteOutcome
{
    bool promoted = false;           ///< a partial migration was initiated
    HostId promotedTo = invalidHost;
    /** The vote fired but promotion was suppressed (migration backoff).
     *  The counter stays at threshold, so promotion resumes naturally
     *  once the link is healthy again. */
    bool suppressed = false;
};

/** Outcome of an inter-host access touching a migrated page. */
struct InterHostOutcome
{
    bool revoked = false;            ///< local counter hit 0: revocation
};

/** The PIPM remapping state machine. */
class PipmState
{
  public:
    /**
     * @param cfg PIPM parameters (thresholds, counter widths)
     * @param num_hosts host count
     * @param mode vote (PIPM) or staticMap (HW-static)
     * @param space frame allocator for local migration frames
     */
    PipmState(const PipmConfig &cfg, unsigned num_hosts, PipmMode mode,
              AddressSpace &space);

    // ---- Queries ------------------------------------------------------

    /** Host a page is partially migrated to, or invalidHost. */
    HostId migratedHostOf(PageFrame cxl_page) const;

    /** Whether a page has a local remapping entry on host h. */
    bool hasLocalEntry(HostId h, PageFrame cxl_page) const;

    /** Whether line `line_idx` of a page is migrated into host h (I'/ME). */
    bool lineMigrated(HostId h, PageFrame cxl_page, unsigned line_idx) const;

    /** Local-DRAM address of a migrated line on host h. */
    PhysAddr localLineAddr(HostId h, PageFrame cxl_page,
                           unsigned line_idx) const;

    /** The global entry for a page (creating a default if absent). */
    GlobalRemapEntry &globalEntry(PageFrame cxl_page);

    /** Count of lines currently migrated into host h. */
    std::uint64_t migratedLinesOn(HostId h) const { return linesOn_[h]; }

    /** Count of pages with a local entry on host h. */
    std::uint64_t migratedPagesOn(HostId h) const;

    /**
     * All local remap entries of host h (crash sweep, tests). Iteration
     * order is probe order — consumers whose results depend on visit
     * order must go through sortedKeys() first.
     */
    const FlatMap<PageFrame, LocalRemapEntry> &
    localEntries(HostId h) const
    {
        return local_[h];
    }

    /**
     * Pre-size the remap tables (called once at system construction;
     * avoids rehash churn in the per-access path during warmup).
     * @param shared_pages shared-heap pages the global table may track
     * @param local_pages_per_host bound on concurrently migrated pages
     *        per host (local frames available to PIPM)
     */
    void reservePages(std::uint64_t shared_pages,
                      std::uint64_t local_pages_per_host);

    // ---- Software interface (§6) ---------------------------------------

    /**
     * Enable or disable partial migration for one page. The paper's
     * discussion (§6) proposes exposing exactly this to applications:
     * pages whose semantics make migration useless (streaming-once
     * buffers, deliberately replicated read-only data) can opt out. A
     * disabled page is never promoted; if it is currently migrated the
     * caller should revoke it first (the system layer does).
     */
    void setMigrationAllowed(PageFrame cxl_page, bool allowed);

    /** Whether the vote may promote this page. */
    bool migrationAllowed(PageFrame cxl_page) const;

    // ---- Policy events ------------------------------------------------

    /**
     * A device-visible access (LLC miss reaching the CXL node) by
     * `requester` to a page: update the majority vote and possibly
     * initiate a partial migration (vote mode), or lazily instantiate the
     * static mapping (staticMap mode).
     * @param allow_promote when false (migration backoff under link
     *        faults) the vote still updates but a firing is suppressed
     */
    VoteOutcome deviceAccess(PageFrame cxl_page, HostId requester,
                             bool allow_promote = true);

    /**
     * A local LLC-miss access by the owning host to a page migrated to it
     * (served from local memory): bump the local counter (§4.2 step 4).
     */
    void localOwnerAccess(HostId h, PageFrame cxl_page);

    /**
     * An inter-host access was forwarded to owning host h for a migrated
     * line of this page: decrement the local counter; at zero, revoke
     * (§4.2 steps 5-6). The caller must then call takeRevocation() to
     * collect the lines to move back.
     */
    InterHostOutcome interHostAccess(HostId h, PageFrame cxl_page);

    /** Mark a line migrated into h (incremental migration, case 1). */
    void setLineMigrated(HostId h, PageFrame cxl_page, unsigned line_idx);

    /** Clear a line's migrated bit (migrated back, cases 2/5/6). */
    void clearLineMigrated(HostId h, PageFrame cxl_page, unsigned line_idx);

    /**
     * Remove the local entry of a revoked page and release its frame.
     * @return bitmap of lines that must be written back to CXL memory
     */
    std::uint64_t revoke(HostId h, PageFrame cxl_page);

    /**
     * Roll back a just-initiated promotion whose setup was interrupted
     * by a fault: release the local frame, drop the local entry and
     * reset the global entry. Only legal before any line has migrated
     * (the bitmap must still be empty); afterwards the page is exactly
     * as if the vote had never fired.
     */
    void abortPromotion(HostId h, PageFrame cxl_page);

    /**
     * Reclaim one page of a crashed host (DESIGN.md §8): drop the local
     * entry, release its frame and reset the global entry. Unlike
     * revoke(), no data migrates back — the host's local DRAM contents
     * are gone, so the caller accounts the loss separately and neither
     * `revocations` nor `linesBack` is counted.
     * @return the line bitmap that was set (lines reverting to their
     *         stale CXL home copies)
     */
    std::uint64_t crashReclaimPage(HostId h, PageFrame cxl_page);

    /**
     * Drop every pending vote naming host h as the candidate (crash):
     * a dead host must not win a majority it can no longer use.
     */
    void clearVotesFor(HostId h);

    /**
     * Panic if any remap state still references host h (post-crash
     * invariant: no local entry on h, no global curHost/candHost == h).
     */
    void checkNoHostReferences(HostId h) const;

    /**
     * Check the remap-table invariants: every local entry matches a
     * global curHost (and vice versa), no local frame is doubly mapped,
     * and the per-host line accounting equals the bitmap population.
     * Panics on violation. For tests and the fault-schedule checker.
     */
    void checkRemapInvariants() const;

    // ---- Metadata fault domain (DESIGN.md §12) --------------------------
    //
    // Corruption of a local remap entry is modelled like the directory's
    // (see device_directory.hh): the entry's stored image is validated
    // against a per-entry shadow checksum on every touch, so corrupted
    // metadata is quarantined — never consumed — until the scrubber or a
    // demand access repairs it. When the checksum survives, the entry is
    // rebuilt in place; when the fault spans the checksum too, the redo
    // journal (a small ring of recently written migration metadata)
    // replays the entry, and only a page whose journal records were
    // already overwritten must be force-reclaimed.

    /** Outstanding corruption of one local remap entry. */
    struct MetaCorruption
    {
        std::uint64_t bits = 0;   ///< bit-flip mask the fault applied
        bool shadowHit = false;   ///< checksum also hit: journal or reclaim
    };

    /**
     * Quarantine host h's local entry for a page as corrupted.
     * @return false when there is no such entry or it is already
     *         quarantined
     */
    bool corruptLocalEntry(HostId h, PageFrame cxl_page,
                           std::uint64_t bits, bool shadow_hit);

    /**
     * Quarantine the victim of one corruption event: the first local
     * entry, in host-major page-ascending order rotated by `pick` (the
     * k-th candidate is entry number `(pick + k) % count`, with `pick +
     * k` wrapping at 2^64), that is not quarantined already. Selects
     * each candidate from one host's unsorted keys instead of sorting
     * every host's.
     * @return the quarantined (host, page), or nullopt when every entry
     *         (possibly none) is quarantined already
     */
    std::optional<std::pair<HostId, PageFrame>>
    corruptLocalFrom(std::uint64_t pick, std::uint64_t bits,
                     bool shadow_hit);

    /** Whether host h's entry for a page is quarantined. */
    bool localEntryCorrupted(HostId h, PageFrame cxl_page) const
    {
        return !corrupt_[h].empty() && corrupt_[h].contains(cxl_page);
    }

    /** The corruption record, or nullptr when not quarantined. */
    const MetaCorruption *corruptionOf(HostId h, PageFrame cxl_page) const;

    /** The entry was rebuilt (or dropped): lift the quarantine. */
    void clearCorruption(HostId h, PageFrame cxl_page)
    {
        corrupt_[h].erase(cxl_page);
    }

    /** Quarantined (host, page) pairs in order (deterministic scrub). */
    std::vector<std::pair<HostId, PageFrame>> corruptedLocalEntries() const;

    std::size_t corruptedCount() const;

    /**
     * Turn on the migration-metadata redo journal with a capacity of
     * `capacity_pages` pages (0 keeps it off). Every local-entry write
     * (promotion, line in/out) refreshes the page's journal records;
     * the oldest page's records are overwritten when the ring is full.
     */
    void enableJournal(unsigned capacity_pages)
    {
        journalCap_ = capacity_pages;
    }

    /** Whether the journal still holds (h, page)'s metadata records. */
    bool journalCovers(HostId h, PageFrame cxl_page) const;

    /** Pages currently covered by the journal (tests). */
    std::size_t journalLive() const { return journalFifo_.size(); }

    // ---- Stats ---------------------------------------------------------

    StatGroup &stats() { return stats_; }

    Counter promotions;
    Counter revocations;
    Counter linesIn;        ///< lines incrementally migrated to local DRAM
    Counter linesBack;      ///< lines migrated back to CXL memory
    Counter allocFailures;  ///< promotions skipped: no local frame free

  private:
    /** Majority-vote update; returns true when the threshold fires. */
    bool voteUpdate(GlobalRemapEntry &g, HostId requester);

    /** Create the local entry for a promotion; false if no frame free. */
    bool installLocalEntry(HostId h, PageFrame cxl_page);

    PipmConfig cfg_;
    unsigned numHosts_;
    PipmMode mode_;
    AddressSpace &space_;
    std::uint8_t counterMax_;       ///< 2^globalCounterBits - 1
    std::uint8_t localCounterMax_;  ///< 2^localCounterBits - 1

    /** The journal ring key of one (host, page) pair. */
    static std::uint64_t
    journalKey(HostId h, PageFrame cxl_page)
    {
        return (static_cast<std::uint64_t>(h) << 52) | cxl_page;
    }

    /** Refresh (h, page)'s journal records (move to the ring's tail). */
    void journalTouch(HostId h, PageFrame cxl_page);

    /** Drop (h, page) from the journal (its entry was removed). */
    void journalDrop(HostId h, PageFrame cxl_page);

    FlatMap<PageFrame, GlobalRemapEntry> global_;
    FlatSet<PageFrame> migrationDisabled_;
    std::vector<FlatMap<PageFrame, LocalRemapEntry>> local_;
    std::vector<std::uint64_t> linesOn_;

    /** Per-host quarantined local entries (DESIGN.md §12). */
    std::vector<FlatMap<PageFrame, MetaCorruption>> corrupt_;
    unsigned journalCap_ = 0;                 ///< ring capacity (0: off)
    std::vector<std::uint64_t> journalFifo_;  ///< keys, oldest first
    FlatSet<std::uint64_t> journalSet_;       ///< membership of the ring

    StatGroup stats_;
};

} // namespace pipm

#endif // PIPM_PIPM_STATE_HH
