#include "pipm/pipm_state.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "os/address_space.hh"

namespace pipm
{

PipmState::PipmState(const PipmConfig &cfg, unsigned num_hosts,
                     PipmMode mode, AddressSpace &space)
    : cfg_(cfg),
      numHosts_(num_hosts),
      mode_(mode),
      space_(space),
      counterMax_(static_cast<std::uint8_t>((1u << cfg.globalCounterBits) -
                                            1)),
      localCounterMax_(
          static_cast<std::uint8_t>((1u << cfg.localCounterBits) - 1)),
      local_(num_hosts),
      linesOn_(num_hosts, 0),
      corrupt_(num_hosts),
      stats_("pipm")
{
    stats_.addCounter(&promotions, "promotions",
                      "partial migrations initiated");
    stats_.addCounter(&revocations, "revocations",
                      "partial migrations revoked");
    stats_.addCounter(&linesIn, "lines_in",
                      "lines incrementally migrated into local DRAM");
    stats_.addCounter(&linesBack, "lines_back",
                      "lines migrated back to CXL memory");
    stats_.addCounter(&allocFailures, "alloc_failures",
                      "promotions skipped for lack of local frames");
}

HostId
PipmState::migratedHostOf(PageFrame cxl_page) const
{
    auto it = global_.find(cxl_page);
    return it == global_.end() ? invalidHost : it->second.curHost;
}

bool
PipmState::hasLocalEntry(HostId h, PageFrame cxl_page) const
{
    return local_[h].contains(cxl_page);
}

bool
PipmState::lineMigrated(HostId h, PageFrame cxl_page,
                        unsigned line_idx) const
{
    auto it = local_[h].find(cxl_page);
    if (it == local_[h].end())
        return false;
    return (it->second.lineBitmap >> line_idx) & 1;
}

PhysAddr
PipmState::localLineAddr(HostId h, PageFrame cxl_page,
                         unsigned line_idx) const
{
    auto it = local_[h].find(cxl_page);
    panic_if(it == local_[h].end(), "localLineAddr: page ", cxl_page,
             " has no local entry on host ", int(h));
    return pageBase(it->second.localPfn) +
           static_cast<PhysAddr>(line_idx) * lineBytes;
}

GlobalRemapEntry &
PipmState::globalEntry(PageFrame cxl_page)
{
    return global_[cxl_page];
}

std::uint64_t
PipmState::migratedPagesOn(HostId h) const
{
    return local_[h].size();
}

void
PipmState::reservePages(std::uint64_t shared_pages,
                        std::uint64_t local_pages_per_host)
{
    // The tables hold one entry per *migrated* page, which is a small
    // slice of shared memory; cap the pre-size so a large address space
    // doesn't buy cache-hostile tables (growth is amortised past it).
    constexpr std::uint64_t cap = 1u << 14;
    global_.reserve(std::min(shared_pages, cap));
    for (auto &l : local_)
        l.reserve(std::min({shared_pages, local_pages_per_host, cap}));
}

bool
PipmState::voteUpdate(GlobalRemapEntry &g, HostId requester)
{
    // Boyer-Moore majority vote (§4.2): the counter rises only while one
    // host out-accesses all others combined.
    if (g.counter == 0) {
        g.candHost = requester;
        g.counter = 1;
    } else if (g.candHost == requester) {
        if (g.counter < counterMax_)
            ++g.counter;
    } else {
        --g.counter;
    }
    return g.candHost == requester && g.counter >= cfg_.migrationThreshold;
}

bool
PipmState::installLocalEntry(HostId h, PageFrame cxl_page)
{
    auto frame = space_.allocPipmFrame(h);
    if (!frame) {
        allocFailures.inc();
        return false;
    }
    LocalRemapEntry entry;
    entry.localPfn = *frame;
    // §4.2: the local counter is initialised to the migration threshold.
    entry.counter = static_cast<std::uint8_t>(
        std::min<unsigned>(cfg_.migrationThreshold, localCounterMax_));
    entry.lineBitmap = 0;
    local_[h].emplace(cxl_page, entry);
    journalTouch(h, cxl_page);
    promotions.inc();
    return true;
}

void
PipmState::setMigrationAllowed(PageFrame cxl_page, bool allowed)
{
    if (allowed)
        migrationDisabled_.erase(cxl_page);
    else
        migrationDisabled_.insert(cxl_page);
}

bool
PipmState::migrationAllowed(PageFrame cxl_page) const
{
    return !migrationDisabled_.contains(cxl_page);
}

VoteOutcome
PipmState::deviceAccess(PageFrame cxl_page, HostId requester,
                        bool allow_promote)
{
    VoteOutcome out;
    if (!migrationAllowed(cxl_page))
        return out;
    GlobalRemapEntry &g = global_[cxl_page];

    if (mode_ == PipmMode::staticMap) {
        // HW-static: every page is permanently assigned to one host; the
        // entry materialises on that host's first device-visible access.
        const HostId target =
            static_cast<HostId>(cxl_page % numHosts_);
        if (g.curHost == invalidHost && requester == target) {
            if (!allow_promote) {
                out.suppressed = true;
                return out;
            }
            if (installLocalEntry(target, cxl_page)) {
                g.curHost = target;
                out.promoted = true;
                out.promotedTo = target;
            }
        }
        return out;
    }

    const bool fired = voteUpdate(g, requester);
    if (fired && g.curHost == invalidHost) {
        if (!allow_promote) {
            out.suppressed = true;
            return out;
        }
        if (installLocalEntry(requester, cxl_page)) {
            g.curHost = requester;
            out.promoted = true;
            out.promotedTo = requester;
        }
    }
    return out;
}

void
PipmState::localOwnerAccess(HostId h, PageFrame cxl_page)
{
    auto it = local_[h].find(cxl_page);
    if (it == local_[h].end())
        return;
    if (it->second.counter < localCounterMax_)
        ++it->second.counter;
}

InterHostOutcome
PipmState::interHostAccess(HostId h, PageFrame cxl_page)
{
    InterHostOutcome out;
    if (mode_ == PipmMode::staticMap)
        return out;   // HW-static never revokes its static mapping
    auto it = local_[h].find(cxl_page);
    if (it == local_[h].end())
        return out;
    if (it->second.counter > 0)
        --it->second.counter;
    out.revoked = it->second.counter == 0;
    return out;
}

void
PipmState::setLineMigrated(HostId h, PageFrame cxl_page, unsigned line_idx)
{
    auto it = local_[h].find(cxl_page);
    panic_if(it == local_[h].end(), "setLineMigrated without local entry");
    const std::uint64_t bit = 1ull << line_idx;
    panic_if(it->second.lineBitmap & bit, "line ", line_idx, " of page ",
             cxl_page, " already migrated");
    it->second.lineBitmap |= bit;
    ++linesOn_[h];
    journalTouch(h, cxl_page);
    linesIn.inc();
}

void
PipmState::clearLineMigrated(HostId h, PageFrame cxl_page, unsigned line_idx)
{
    auto it = local_[h].find(cxl_page);
    panic_if(it == local_[h].end(), "clearLineMigrated without local entry");
    const std::uint64_t bit = 1ull << line_idx;
    panic_if(!(it->second.lineBitmap & bit), "line ", line_idx, " of page ",
             cxl_page, " is not migrated");
    it->second.lineBitmap &= ~bit;
    --linesOn_[h];
    journalTouch(h, cxl_page);
    linesBack.inc();
}

std::uint64_t
PipmState::revoke(HostId h, PageFrame cxl_page)
{
    auto it = local_[h].find(cxl_page);
    panic_if(it == local_[h].end(), "revoking page without local entry");
    const std::uint64_t bitmap = it->second.lineBitmap;
    linesOn_[h] -= static_cast<std::uint64_t>(std::popcount(bitmap));
    linesBack.inc(static_cast<std::uint64_t>(std::popcount(bitmap)));
    space_.freePipmFrame(h, it->second.localPfn);
    local_[h].erase(it);
    journalDrop(h, cxl_page);
    clearCorruption(h, cxl_page);

    auto git = global_.find(cxl_page);
    panic_if(git == global_.end(), "revoked page has no global entry");
    git->second.curHost = invalidHost;
    git->second.candHost = invalidHost;
    git->second.counter = 0;
    revocations.inc();
    return bitmap;
}

void
PipmState::abortPromotion(HostId h, PageFrame cxl_page)
{
    auto it = local_[h].find(cxl_page);
    panic_if(it == local_[h].end(),
             "aborting promotion of page ", cxl_page,
             " without local entry on host ", int(h));
    panic_if(it->second.lineBitmap != 0,
             "aborting promotion of page ", cxl_page,
             " after lines already migrated");
    space_.freePipmFrame(h, it->second.localPfn);
    local_[h].erase(it);
    journalDrop(h, cxl_page);
    clearCorruption(h, cxl_page);

    auto git = global_.find(cxl_page);
    panic_if(git == global_.end(),
             "aborted promotion has no global entry");
    git->second.curHost = invalidHost;
    git->second.candHost = invalidHost;
    git->second.counter = 0;
}

std::uint64_t
PipmState::crashReclaimPage(HostId h, PageFrame cxl_page)
{
    auto it = local_[h].find(cxl_page);
    panic_if(it == local_[h].end(), "crash-reclaiming page ", cxl_page,
             " without local entry on host ", int(h));
    const std::uint64_t bitmap = it->second.lineBitmap;
    linesOn_[h] -= static_cast<std::uint64_t>(std::popcount(bitmap));
    space_.freePipmFrame(h, it->second.localPfn);
    local_[h].erase(it);
    journalDrop(h, cxl_page);
    clearCorruption(h, cxl_page);

    auto git = global_.find(cxl_page);
    panic_if(git == global_.end(),
             "crash-reclaimed page has no global entry");
    git->second.curHost = invalidHost;
    git->second.candHost = invalidHost;
    git->second.counter = 0;
    return bitmap;
}

void
PipmState::clearVotesFor(HostId h)
{
    for (auto &[page, g] : global_) {
        if (g.candHost == h && g.curHost != h) {
            g.candHost = invalidHost;
            g.counter = 0;
        }
    }
}

void
PipmState::checkNoHostReferences(HostId h) const
{
    panic_if(!local_[h].empty(), "dead host ", int(h), " still has ",
             local_[h].size(), " local remap entries");
    for (const auto &[page, g] : global_) {
        panic_if(g.curHost == h, "global entry for page ", page,
                 " still names dead host ", int(h), " as curHost");
        panic_if(g.candHost == h, "global entry for page ", page,
                 " still names dead host ", int(h), " as candHost");
    }
}

bool
PipmState::corruptLocalEntry(HostId h, PageFrame cxl_page,
                             std::uint64_t bits, bool shadow_hit)
{
    if (!local_[h].contains(cxl_page) || localEntryCorrupted(h, cxl_page))
        return false;
    corrupt_[h][cxl_page] = MetaCorruption{bits, shadow_hit};
    return true;
}

std::optional<std::pair<HostId, PageFrame>>
PipmState::corruptLocalFrom(std::uint64_t pick, std::uint64_t bits,
                            bool shadow_hit)
{
    std::uint64_t n = 0;
    for (const auto &l : local_)
        n += l.size();
    std::vector<PageFrame> keys;   // the pages of host keys_of
    unsigned keys_of = numHosts_;
    bool sorted = false;
    for (std::uint64_t k = 0; k < n; ++k) {
        // Entry number (pick + k) % n as (host, rank within the host).
        std::uint64_t rank = (pick + k) % n;
        unsigned h = 0;
        while (rank >= local_[h].size()) {
            rank -= local_[h].size();
            ++h;
        }
        if (h != keys_of) {
            keys.clear();
            for (const auto &[page, entry] : local_[h])
                keys.push_back(page);
            keys_of = h;
            sorted = false;
        }
        const auto at = keys.begin() + static_cast<std::ptrdiff_t>(rank);
        if (!sorted)
            std::nth_element(keys.begin(), at, keys.end());
        if (corruptLocalEntry(static_cast<HostId>(h), *at, bits,
                              shadow_hit))
            return std::pair{static_cast<HostId>(h), *at};
        // Already quarantined (rare): sort this host's pages once, so
        // its following ranks are direct reads.
        if (!sorted) {
            std::sort(keys.begin(), keys.end());
            sorted = true;
        }
    }
    return std::nullopt;
}

const PipmState::MetaCorruption *
PipmState::corruptionOf(HostId h, PageFrame cxl_page) const
{
    const auto it = corrupt_[h].find(cxl_page);
    return it == corrupt_[h].end() ? nullptr : &it->second;
}

std::vector<std::pair<HostId, PageFrame>>
PipmState::corruptedLocalEntries() const
{
    std::vector<std::pair<HostId, PageFrame>> out;
    for (unsigned h = 0; h < numHosts_; ++h) {
        for (PageFrame page : corrupt_[h].sortedKeys())
            out.emplace_back(static_cast<HostId>(h), page);
    }
    return out;
}

std::size_t
PipmState::corruptedCount() const
{
    std::size_t n = 0;
    for (const auto &c : corrupt_)
        n += c.size();
    return n;
}

bool
PipmState::journalCovers(HostId h, PageFrame cxl_page) const
{
    return journalCap_ != 0 && journalSet_.contains(journalKey(h, cxl_page));
}

void
PipmState::journalTouch(HostId h, PageFrame cxl_page)
{
    if (journalCap_ == 0)
        return;
    const std::uint64_t key = journalKey(h, cxl_page);
    if (journalSet_.contains(key)) {
        // Refresh: move the page's records to the ring's tail.
        const auto pos =
            std::find(journalFifo_.begin(), journalFifo_.end(), key);
        journalFifo_.erase(pos);
        journalFifo_.push_back(key);
        return;
    }
    journalFifo_.push_back(key);
    journalSet_.insert(key);
    if (journalFifo_.size() > journalCap_) {
        // Ring full: the oldest page's records are overwritten.
        journalSet_.erase(journalFifo_.front());
        journalFifo_.erase(journalFifo_.begin());
    }
}

void
PipmState::journalDrop(HostId h, PageFrame cxl_page)
{
    if (journalCap_ == 0)
        return;
    const std::uint64_t key = journalKey(h, cxl_page);
    if (!journalSet_.erase(key))
        return;
    journalFifo_.erase(
        std::find(journalFifo_.begin(), journalFifo_.end(), key));
}

void
PipmState::checkRemapInvariants() const
{
    for (unsigned h = 0; h < numHosts_; ++h) {
        FlatSet<PageFrame> frames;
        std::uint64_t lines = 0;
        for (const auto &[page, entry] : local_[h]) {
            auto git = global_.find(page);
            panic_if(git == global_.end() ||
                         git->second.curHost != static_cast<HostId>(h),
                     "local entry for page ", page, " on host ", h,
                     " without a matching global curHost");
            panic_if(!frames.insert(entry.localPfn),
                     "local frame ", entry.localPfn,
                     " doubly mapped on host ", h);
            lines += static_cast<std::uint64_t>(
                std::popcount(entry.lineBitmap));
        }
        panic_if(lines != linesOn_[h], "host ", h, " line accounting: ",
                 linesOn_[h], " counted vs ", lines, " in bitmaps");
    }
    for (const auto &[page, g] : global_) {
        if (g.curHost == invalidHost)
            continue;
        panic_if(g.curHost >= numHosts_,
                 "global entry for page ", page,
                 " names out-of-range host ", int(g.curHost));
        panic_if(!local_[g.curHost].contains(page),
                 "global curHost ", int(g.curHost), " for page ", page,
                 " has no local entry (unreachable migrated page)");
    }
}

} // namespace pipm
