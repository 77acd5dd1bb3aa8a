/**
 * @file
 * Device-metadata fault-domain tests (DESIGN.md §12): configuration
 * validation, the seeded corruption schedule and its independence from
 * the other fault streams, directory/remap quarantine semantics, the
 * migration-metadata redo journal, the per-page-group migration circuit
 * breaker, the scrub-and-repair / journal-replay / degraded-fallback
 * resolution paths under randomised schedules, and the corruption-off
 * bit-identity guarantees (stats.json bytes, measurement keys).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coherence/device_directory.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "fuzz/fuzz.hh"
#include "os/address_space.hh"
#include "pipm/pipm_state.hh"
#include "sim/runner.hh"
#include "verify/fault_schedule.hh"
#include "workloads/catalog.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

TEST(MetaConfigValidate, RejectsNonsense)
{
    ThrowOnErrorScope guard;

    FaultConfig f = quietFaults();
    f.metaCorruptMeanIntervalNs = -1.0;
    EXPECT_THROW(f.validate(), SimError);

    f = quietFaults();
    f.metaShadowHitFrac = 1.5;
    EXPECT_THROW(f.validate(), SimError);

    // Corruption that is never scrubbed never heals.
    f = quietFaults();
    f.metaCorruptMeanIntervalNs = 100.0;
    f.metaScrubIntervalNs = 0.0;
    EXPECT_THROW(f.validate(), SimError);

    f = quietFaults();
    f.metaCorruptMeanIntervalNs = 100.0;
    f.metaScrubBudget = 0;
    EXPECT_THROW(f.validate(), SimError);

    f = quietFaults();
    f.metaCorruptMeanIntervalNs = 100.0;
    f.metaCorruptMaxEvents = 0;
    EXPECT_THROW(f.validate(), SimError);

    f = quietFaults();
    f.metaCorruptMeanIntervalNs = 100.0;
    f.metaBreakerThreshold = 0;
    EXPECT_THROW(f.validate(), SimError);

    f = quietFaults();
    f.metaCorruptMeanIntervalNs = 100.0;
    f.metaBreakerGroupPages = 0;
    EXPECT_THROW(f.validate(), SimError);

    // Breaker knobs are inert (not validated) while corruption is off.
    f = quietFaults();
    f.metaBreakerThreshold = 0;
    EXPECT_NO_THROW(f.validate());

    // DoS guards on the pre-generated structures.
    f = quietFaults();
    f.metaCorruptMaxEvents = 1u << 20;
    EXPECT_THROW(f.validate(), SimError);

    f = quietFaults();
    f.metaJournalPages = 1u << 20;
    EXPECT_THROW(f.validate(), SimError);

    // The paper-default factory validates.
    EXPECT_NO_THROW(paperMetaFaultConfig(1).validate());
}

TEST(MetaSchedule, DisabledGeneratesNothing)
{
    FaultInjector inj(quietFaults(3), 2, 3);
    EXPECT_TRUE(inj.metaCorruptSchedule().empty());
    EXPECT_EQ(inj.nextMetaCorruptEvent(maxCycles), nullptr);
    // A breaker that can never be fed never sheds.
    EXPECT_FALSE(inj.migrationShed(7, 1'000'000));
}

TEST(MetaSchedule, SameSeedIsDeterministic)
{
    const FaultConfig f = paperMetaFaultConfig(9);
    FaultInjector a(f, 4, 9);
    FaultInjector b(f, 4, 9);
    const auto &sa = a.metaCorruptSchedule();
    const auto &sb = b.metaCorruptSchedule();
    ASSERT_EQ(sa.size(), sb.size());
    ASSERT_EQ(sa.size(), f.metaCorruptMaxEvents);
    bool any_shadow = false;
    bool any_clean = false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].at, sb[i].at);
        EXPECT_EQ(sa[i].pick, sb[i].pick);
        EXPECT_EQ(sa[i].bits, sb[i].bits);
        EXPECT_EQ(sa[i].remapTarget, sb[i].remapTarget);
        EXPECT_EQ(sa[i].shadowHit, sb[i].shadowHit);
        EXPECT_NE(sa[i].bits, 0u);   // a corruption always flips a bit
        if (i > 0) {
            EXPECT_GT(sa[i].at, sa[i - 1].at);
        }
        any_shadow = any_shadow || sa[i].shadowHit;
        any_clean = any_clean || !sa[i].shadowHit;
    }
    // Paper defaults draw both repairable and unrepairable events.
    EXPECT_TRUE(any_shadow);
    EXPECT_TRUE(any_clean);
}

TEST(MetaSchedule, EnablingCorruptionLeavesOtherStreamsUntouched)
{
    // The meta schedule derives from its own seed stream ("meta-ev"), so
    // switching corruption on must not move a single crash or stall
    // event — the §12 machinery composes with §8/§11 without changing
    // what they replay.
    const std::uint64_t seed = 17;
    FaultConfig plain = paperSuspicionFaultConfig(seed);
    FaultConfig with_meta = paperSuspicionFaultConfig(seed);
    addPaperMetaFaults(with_meta);

    FaultInjector a(plain, 4, seed);
    FaultInjector b(with_meta, 4, seed);

    const auto &ca = a.crashSchedule();
    const auto &cb = b.crashSchedule();
    ASSERT_EQ(ca.size(), cb.size());
    ASSERT_FALSE(ca.empty());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].at, cb[i].at);
        EXPECT_EQ(ca[i].host, cb[i].host);
        EXPECT_EQ(ca[i].rejoin, cb[i].rejoin);
        EXPECT_EQ(ca[i].downUntil, cb[i].downUntil);
    }
    bool any_stall = false;
    for (unsigned h = 0; h < 4; ++h) {
        const auto &wa = a.stallWindows(static_cast<HostId>(h));
        EXPECT_EQ(wa, b.stallWindows(static_cast<HostId>(h)));
        any_stall = any_stall || !wa.empty();
    }
    EXPECT_TRUE(any_stall);
    EXPECT_TRUE(a.metaCorruptSchedule().empty());
    EXPECT_FALSE(b.metaCorruptSchedule().empty());
}

TEST(MetaQuarantine, DirectoryTracksAndClearsCorruption)
{
    DirectoryConfig dcfg;
    dcfg.sets = 2;
    dcfg.ways = 2;
    dcfg.slices = 2;
    DeviceDirectory dir(dcfg);

    DirEntry e;
    e.state = DevState::S;
    e.add(0);
    dir.allocate(42, e);

    // Untracked lines cannot be corrupted; tracked ones quarantine once.
    EXPECT_FALSE(dir.corruptEntry(7, 0xff, false));
    EXPECT_TRUE(dir.corruptEntry(42, 0xff, true));
    EXPECT_FALSE(dir.corruptEntry(42, 0x1, false));
    EXPECT_TRUE(dir.entryCorrupted(42));
    ASSERT_NE(dir.corruptionOf(42), nullptr);
    EXPECT_EQ(dir.corruptionOf(42)->bits, 0xffu);
    EXPECT_TRUE(dir.corruptionOf(42)->shadowHit);

    // The pristine image stays live: corrupted metadata is never
    // consumed, only quarantined beside the entry.
    ASSERT_NE(dir.lookup(42), nullptr);
    EXPECT_EQ(dir.lookup(42)->state, DevState::S);

    // Dropping the entry lifts the quarantine.
    dir.deallocate(42);
    EXPECT_FALSE(dir.entryCorrupted(42));
    EXPECT_EQ(dir.corruptedCount(), 0u);
}

TEST(MetaBreaker, TripsShedsAndHalfOpens)
{
    FaultConfig f = quietFaults(5);
    f.metaCorruptMeanIntervalNs = 1'000.0;   // enables the §12 machinery
    f.metaBreakerThreshold = 2;
    f.metaBreakerWindowNs = 100.0;
    f.metaBreakerCooldownNs = 200.0;
    f.metaBreakerGroupPages = 8;
    f.validate();
    FaultInjector inj(f, 2, 5);

    const Cycles window = nsToCycles(f.metaBreakerWindowNs);
    const Cycles cooldown = nsToCycles(f.metaBreakerCooldownNs);

    // One strike is below threshold; a second within the window trips.
    inj.noteMetaRepair(16, 10);
    EXPECT_FALSE(inj.migrationShed(16, 11));
    inj.noteMetaRepair(17, 20);   // same group: 17 / 8 == 16 / 8
    EXPECT_TRUE(inj.migrationShed(16, 21));
    EXPECT_TRUE(inj.migrationShed(23, 21));    // whole group is shed
    EXPECT_FALSE(inj.migrationShed(24, 21));   // next group is not
    EXPECT_EQ(inj.metaBreakerTrips.value(), 1u);

    // Still open during cool-down; half-opens after it elapses.
    EXPECT_TRUE(inj.migrationShed(16, 20 + cooldown - 1));
    inj.advanceBreakers(20 + cooldown + 1);
    EXPECT_FALSE(inj.migrationShed(16, 20 + cooldown + 2));
    EXPECT_EQ(inj.metaBreakerHalfOpens.value(), 1u);

    // A strike on probation re-trips immediately with a doubled
    // cool-down (exponential backoff).
    const Cycles t2 = 20 + cooldown + 10;
    inj.noteMetaRepair(16, t2);
    inj.noteMetaRepair(16, t2 + 1);
    EXPECT_TRUE(inj.migrationShed(16, t2 + 2));
    EXPECT_EQ(inj.metaBreakerTrips.value(), 2u);
    EXPECT_TRUE(inj.migrationShed(16, t2 + cooldown + 2));
    inj.advanceBreakers(t2 + 1 + 2 * cooldown + 1);
    EXPECT_FALSE(inj.migrationShed(16, t2 + 1 + 2 * cooldown + 2));

    // A full clean window after half-open resets the backoff exponent.
    const Cycles t3 = t2 + 1 + 2 * cooldown + 2;
    inj.advanceBreakers(t3 + window + 1);
    inj.noteMetaRepair(16, t3 + window + 10);
    inj.noteMetaRepair(16, t3 + window + 11);
    EXPECT_TRUE(inj.migrationShed(16, t3 + window + 12));
    // Re-tripped with the base cool-down again: open at +cooldown-1,
    // closed (after advance) at +cooldown+1.
    EXPECT_TRUE(
        inj.migrationShed(16, t3 + window + 11 + cooldown - 1));
    inj.advanceBreakers(t3 + window + 11 + cooldown + 1);
    EXPECT_FALSE(
        inj.migrationShed(16, t3 + window + 11 + cooldown + 2));
}

TEST(MetaJournal, CoversRecentMigrationsAndEvictsOldest)
{
    SystemConfig cfg = testConfig();
    AddressSpace space(cfg, 64 * pageBytes, 8 * pageBytes);
    PipmState state(cfg.pipm, cfg.numHosts, PipmMode::vote, space);
    state.reservePages(64, 0);
    state.enableJournal(2);

    auto promote = [&](PageFrame p, HostId h) {
        for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i)
            state.deviceAccess(p, h);
        ASSERT_TRUE(state.hasLocalEntry(h, p));
    };

    promote(1, 0);
    EXPECT_TRUE(state.journalCovers(0, 1));
    promote(2, 0);
    EXPECT_TRUE(state.journalCovers(0, 2));
    EXPECT_EQ(state.journalLive(), 2u);

    // A third page overflows the two-page ring: page 1's records are the
    // oldest and get overwritten.
    promote(3, 0);
    EXPECT_FALSE(state.journalCovers(0, 1));
    EXPECT_TRUE(state.journalCovers(0, 2));
    EXPECT_TRUE(state.journalCovers(0, 3));

    // A line migration refreshes the page's records (moves it to the
    // ring's tail), so the other page is now the eviction victim.
    state.setLineMigrated(0, 2, 0);
    promote(4, 0);
    EXPECT_TRUE(state.journalCovers(0, 2));
    EXPECT_FALSE(state.journalCovers(0, 3));

    // Reclaim drops the page's records outright.
    state.crashReclaimPage(0, 2);
    EXPECT_FALSE(state.journalCovers(0, 2));
}

TEST(MetaQuarantine, RemapEntriesQuarantineBesidePristineState)
{
    SystemConfig cfg = testConfig();
    AddressSpace space(cfg, 64 * pageBytes, 8 * pageBytes);
    PipmState state(cfg.pipm, cfg.numHosts, PipmMode::vote, space);
    state.reservePages(64, 0);

    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i)
        state.deviceAccess(5, 1);
    ASSERT_TRUE(state.hasLocalEntry(1, 5));

    EXPECT_FALSE(state.corruptLocalEntry(0, 5, 0x2, false));   // no entry
    EXPECT_TRUE(state.corruptLocalEntry(1, 5, 0x2, false));
    EXPECT_FALSE(state.corruptLocalEntry(1, 5, 0x4, true));    // once
    EXPECT_TRUE(state.localEntryCorrupted(1, 5));
    EXPECT_EQ(state.corruptedCount(), 1u);
    ASSERT_NE(state.corruptionOf(1, 5), nullptr);
    EXPECT_FALSE(state.corruptionOf(1, 5)->shadowHit);

    // The quarantined entry still answers queries from its pristine
    // image (validated-on-read model); migration state is intact.
    state.setLineMigrated(1, 5, 3);
    EXPECT_TRUE(state.lineMigrated(1, 5, 3));

    // Reclaiming the page lifts the quarantine with it.
    state.crashReclaimPage(1, 5);
    EXPECT_FALSE(state.localEntryCorrupted(1, 5));
    EXPECT_EQ(state.corruptedCount(), 0u);
}

/**
 * A corruption event's pick: random, small, or near 2^64, so that
 * pick + k wraps within the run of quarantined candidates a rotation
 * skips (2^64 - 1 - j wraps at k = j + 1).
 */
std::uint64_t
victimPick(Rng &rng, std::size_t event, std::uint64_t n)
{
    switch (event % 4) {
      case 0:
        return rng.next();
      case 1:
        return rng.below(2 * n + 1);
      case 2:
        return ~std::uint64_t{0} - rng.below(8);
      default:
        return ~std::uint64_t{0} - rng.below(2 * n + 1);
    }
}

/**
 * Rounds of corruption events. Each round lifts every quarantine,
 * quarantines about 85% of the candidates (long rejected runs), then
 * runs events until every candidate is quarantined. Each event's
 * victim must be the reference's: the first candidate of the listed
 * order, indexed at `(pick + k) % size` with unsigned wrap, that is not
 * quarantined yet.
 */
template <typename Candidate, typename CorruptFrom, typename Quarantine,
          typename Quarantined>
void
expectListedRotation(const std::vector<Candidate> &listed, Rng &rng,
                     CorruptFrom corrupt_from, Quarantine quarantine,
                     Quarantined quarantined)
{
    const std::uint64_t n = listed.size();
    for (int round = 0; round < 8; ++round) {
        for (const Candidate &c : listed)
            quarantine(c, rng.chance(0.85));
        for (std::size_t event = 0;; ++event) {
            const std::uint64_t pick = victimPick(rng, event, n);
            std::optional<Candidate> want;
            for (std::uint64_t k = 0; k < n && !want; ++k) {
                const Candidate &c = listed[(pick + k) % n];
                if (!quarantined(c))
                    want = c;
            }
            const std::optional<Candidate> got = corrupt_from(pick);
            ASSERT_EQ(got, want)
                << "round " << round << " event " << event << " pick "
                << pick;
            if (!want)
                break;
            EXPECT_TRUE(quarantined(*got));
        }
    }
}

TEST(MetaVictim, DirectoryRotationMatchesTheListedOrder)
{
    SystemConfig cfg = testConfig();
    DeviceDirectory dir(cfg.deviceDirectory);
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        const LineAddr line = rng.below(1u << 16);
        if (!dir.probe(line))
            dir.allocate(line, DirEntry{});
    }
    std::vector<LineAddr> listed;
    dir.forEach([&](LineAddr line, const DirEntry &) {
        listed.push_back(line);
    });
    ASSERT_GT(listed.size(), 2000u);
    expectListedRotation(
        listed, rng,
        [&](std::uint64_t pick) {
            return dir.corruptFrom(pick, 0x10, pick & 1);
        },
        [&](LineAddr line, bool on) {
            dir.clearCorruption(line);
            if (on)
                dir.corruptEntry(line, 0x1, false);
        },
        [&](LineAddr line) { return dir.entryCorrupted(line); });
}

TEST(MetaVictim, RemapRotationMatchesTheSortedHostConcatenation)
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;
    AddressSpace space(cfg, 512 * pageBytes, 8 * pageBytes);
    PipmState state(cfg.pipm, cfg.numHosts, PipmMode::vote, space);
    state.reservePages(512, 0);
    Rng rng(11);
    // Promote random pages to hosts 0, 1 and 3: host 2 stays empty, so
    // the rank-to-host walk has an empty host to skip.
    for (PageFrame page = 0; page < 512; ++page) {
        if (!rng.chance(0.5))
            continue;
        auto h = static_cast<HostId>(rng.below(3));
        if (h == 2)
            h = 3;
        for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i)
            state.deviceAccess(page, h);
    }
    // The order the rotation must follow: each host's pages ascending,
    // host-major (the per-host sortedKeys() concatenation).
    using Entry = std::pair<HostId, PageFrame>;
    std::vector<Entry> listed;
    for (unsigned s = 0; s < cfg.numHosts; ++s) {
        const auto h = static_cast<HostId>(s);
        for (const PageFrame page : state.localEntries(h).sortedKeys())
            listed.emplace_back(h, page);
    }
    ASSERT_GT(listed.size(), 150u);
    ASSERT_TRUE(state.localEntries(2).empty());
    expectListedRotation(
        listed, rng,
        [&](std::uint64_t pick) {
            return state.corruptLocalFrom(pick, 0x10, pick & 1);
        },
        [&](const Entry &e, bool on) {
            state.clearCorruption(e.first, e.second);
            if (on)
                state.corruptLocalEntry(e.first, e.second, 0x1, false);
        },
        [&](const Entry &e) {
            return state.localEntryCorrupted(e.first, e.second);
        });
}

TEST(MetaSchedules, RandomisedCheckingExercisesAllResolutionPaths)
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;
    cfg.fault = paperMetaFaultConfig();
    const FaultCheckResult r =
        checkFaultSchedules(cfg, Scheme::pipmFull, 2, 8'000);
    EXPECT_TRUE(r.ok) << r.violation;
    const RunResult &t = r.totals;
    EXPECT_GT(t.metaCorruptions, 0u);
    EXPECT_GT(t.metaScrubRepairs, 0u);     // probe-and-rebuild happened
    EXPECT_GT(t.metaUnrepairable, 0u);     // degraded fallback happened
    EXPECT_GT(t.metaBreakerTrips, 0u);     // migration was shed
    EXPECT_GT(t.metaBreakerHalfOpens, 0u); // ... and recovered
}

TEST(MetaSchedules, ComposesWithCrashAndSuspicionSchedules)
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;
    cfg.fault = paperSuspicionFaultConfig();
    addPaperMetaFaults(cfg.fault);
    const FaultCheckResult r =
        checkFaultSchedules(cfg, Scheme::pipmFull, 2, 6'000);
    EXPECT_TRUE(r.ok) << r.violation;
    EXPECT_GT(r.totals.hostCrashes, 0u);
    EXPECT_GT(r.totals.metaCorruptions, 0u);
}

TEST(MetaSchedules, SameSeedCheckerCountsAreDeterministic)
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;
    cfg.fault = paperMetaFaultConfig();
    const FaultCheckResult a =
        checkFaultSchedules(cfg, Scheme::pipmFull, 1, 5'000, 7);
    const FaultCheckResult b =
        checkFaultSchedules(cfg, Scheme::pipmFull, 1, 5'000, 7);
    EXPECT_TRUE(a.ok) << a.violation;
    EXPECT_GT(a.totals.metaCorruptions, 0u);
    EXPECT_EQ(fuzz::fingerprintResult(a.totals),
              fuzz::fingerprintResult(b.totals));
}

TEST(MetaOff, MeasurementKeyAndStatsJsonAreUntouched)
{
    // Corruption off must be indistinguishable from a build that never
    // heard of §12: the measurement key gains no field (bench caches
    // stay valid) and stats.json is byte-identical (no conditionally
    // registered counters leak in).
    SystemConfig plain = testConfig();
    plain.fault = paperFaultConfig(3);

    SystemConfig tweaked = testConfig();
    tweaked.fault = paperFaultConfig(3);
    // Non-default §12 knobs with the master switch off...
    tweaked.fault.metaShadowHitFrac = 0.9;
    tweaked.fault.metaBreakerThreshold = 7;
    tweaked.fault.metaScrubBudget = 3;
    tweaked.fault.metaCorruptMeanIntervalNs = 0.0;

    EXPECT_EQ(plain.measurementKey(), tweaked.measurementKey());

    SystemConfig on = testConfig();
    on.fault = paperMetaFaultConfig(3);
    EXPECT_NE(on.measurementKey(), plain.measurementKey());

    const std::string pa = testing::TempDir() + "pipm_meta_off_a.json";
    const std::string pb = testing::TempDir() + "pipm_meta_off_b.json";
    auto wl = smallWorkload();
    RunConfig run = shortRun();
    run.obsFromEnv = false;
    run.statsJsonPath = pa;
    runExperiment(plain, Scheme::pipmFull, *wl, run);
    run.statsJsonPath = pb;
    runExperiment(tweaked, Scheme::pipmFull, *wl, run);
    const std::string da = slurp(pa);
    EXPECT_EQ(da, slurp(pb));
    // The meta_* totals are always exported (as 0); the conditionally
    // registered fault.meta_* interval columns must not be.
    EXPECT_EQ(da.find("fault.meta_"), std::string::npos);
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(MetaOn, CorruptionChangesOnlyItsOwnDomain)
{
    // A corruption-enabled run must still replay the identical crash and
    // stall schedules (checked at the injector level elsewhere); at the
    // run level it stays bit-for-bit deterministic and registers the
    // eight §12 counters.
    SystemConfig cfg = testConfig();
    cfg.fault = paperMetaFaultConfig(3);
    auto wl = smallWorkload();
    RunConfig run = shortRun();
    run.obsFromEnv = false;

    const std::string pa = testing::TempDir() + "pipm_meta_on_a.json";
    const std::string pb = testing::TempDir() + "pipm_meta_on_b.json";
    run.statsJsonPath = pa;
    const RunResult a = runExperiment(cfg, Scheme::pipmFull, *wl, run);
    run.statsJsonPath = pb;
    const RunResult b = runExperiment(cfg, Scheme::pipmFull, *wl, run);
    EXPECT_EQ(a.execCycles, b.execCycles);
    const std::string da = slurp(pa);
    EXPECT_EQ(da, slurp(pb));
    EXPECT_NE(da.find("fault.meta_corruptions"), std::string::npos);
    EXPECT_NE(da.find("fault.meta_scrub_checks"), std::string::npos);
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

} // namespace
} // namespace pipm
