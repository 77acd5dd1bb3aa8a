/**
 * @file
 * Host fail-stop crash and recovery tests (DESIGN.md §8): crash-schedule
 * generation and determinism, directory sweeps of S/M entries, remap
 * reintegration with a partial line bitmap, crash during an in-flight
 * promotion, the poison recovery policy, cold rejoin with epoch-based
 * rejection of stale in-flight references, zero-crash-rate bit-identity
 * with the plain fault schedule, and the randomised crash-schedule
 * checker over 4 hosts.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "verify/fault_schedule.hh"
#include "workloads/catalog.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

// ---- Configuration and schedule generation ------------------------------

TEST(CrashConfig, ValidationAndPaperConfig)
{
    ThrowOnErrorScope guard;
    FaultConfig f;
    f.crashMeanIntervalNs = -1.0;
    EXPECT_THROW(f.validate(), SimError);

    f = FaultConfig{};
    f.crashMeanIntervalNs = 1'000.0;
    f.crashRejoinNs = -5.0;
    EXPECT_THROW(f.validate(), SimError);

    f = FaultConfig{};
    f.crashMeanIntervalNs = 1'000.0;
    f.crashMaxEvents = 0;
    EXPECT_THROW(f.validate(), SimError);

    EXPECT_NO_THROW(paperCrashFaultConfig().validate());
    EXPECT_GT(paperCrashFaultConfig().crashMeanIntervalNs, 0.0);
}

TEST(CrashSchedule, DeterministicAndWellFormed)
{
    const FaultConfig f = paperCrashFaultConfig(11, 50'000.0, 20'000.0);
    FaultInjector a(f, 4, 99);
    FaultInjector b(f, 4, 99);
    ASSERT_FALSE(a.crashSchedule().empty());
    ASSERT_EQ(a.crashSchedule().size(), b.crashSchedule().size());
    for (std::size_t i = 0; i < a.crashSchedule().size(); ++i) {
        const CrashEvent &ea = a.crashSchedule()[i];
        const CrashEvent &eb = b.crashSchedule()[i];
        EXPECT_EQ(ea.at, eb.at);
        EXPECT_EQ(ea.host, eb.host);
        EXPECT_EQ(ea.rejoin, eb.rejoin);
        EXPECT_LT(ea.host, 4);
        if (i > 0) {
            EXPECT_GE(ea.at, a.crashSchedule()[i - 1].at);
        }
    }
    // With a rejoin delay every crash eventually has a matching rejoin.
    std::uint64_t crashes = 0;
    std::uint64_t rejoins = 0;
    for (const CrashEvent &e : a.crashSchedule())
        (e.rejoin ? rejoins : crashes)++;
    EXPECT_EQ(crashes, rejoins);

    // A different injector seed yields a different schedule.
    FaultInjector c(f, 4, 100);
    bool same = c.crashSchedule().size() == a.crashSchedule().size();
    if (same) {
        for (std::size_t i = 0; i < a.crashSchedule().size(); ++i)
            same = same && a.crashSchedule()[i].at ==
                               c.crashSchedule()[i].at;
    }
    EXPECT_FALSE(same);

    // Zero mean interval: no schedule at all.
    FaultInjector quiet(quietFaults(), 4, 99);
    EXPECT_TRUE(quiet.crashSchedule().empty());
    EXPECT_EQ(quiet.nextCrashEvent(maxCycles - 1), nullptr);
}

TEST(CrashSchedule, NeverCrashesLastAliveHost)
{
    // Without rejoin, at most numHosts-1 crashes can ever be scheduled.
    const FaultConfig f = paperCrashFaultConfig(5, 10'000.0, 0.0);
    FaultInjector inj(f, 2, 7);
    EXPECT_LE(inj.crashSchedule().size(), 1u);
    FaultInjector inj4(f, 4, 7);
    EXPECT_LE(inj4.crashSchedule().size(), 3u);
    for (const CrashEvent &e : inj4.crashSchedule())
        EXPECT_FALSE(e.rejoin);
}

// ---- Hardened DirEntry::owner() -----------------------------------------

TEST(CrashDirectory, OwnerScanBoundedByHostCount)
{
    DirEntry e;
    e.state = DevState::M;
    e.sharers = 1u << 2;
    EXPECT_EQ(e.owner(4), 2);
    // Garbage bits beyond the configured host count are never reported.
    e.sharers = 1u << 5;
    EXPECT_EQ(e.owner(4), invalidHost);
}

// ---- Directory sweep ----------------------------------------------------

TEST(CrashSweep, SharedSharerDowngradedWithoutLoss)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);

    Cycles now = 0;
    system.access(0, 0, sharedRef(0, 0, MemOp::write), now, 7);
    now += 1'000;
    const AccessResult r1 =
        system.access(1, 0, sharedRef(0, 0, MemOp::read), now);
    EXPECT_EQ(r1.data, 7u);

    const LineAddr line = homeLine(system, 0, 0);
    ASSERT_NE(system.deviceDirectory().probe(line), nullptr);
    EXPECT_TRUE(system.deviceDirectory().probe(line)->has(1));

    now += 1'000;
    system.crashHost(1, now);
    EXPECT_FALSE(system.hostAlive(1));
    EXPECT_EQ(system.hostEpoch(1), 1u);

    // The S entry survives for the live sharer, minus the dead host.
    const DirEntry *entry = system.deviceDirectory().probe(line);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->has(0));
    EXPECT_FALSE(entry->has(1));
    // S copies are clean: nothing was lost.
    EXPECT_TRUE(system.lostLines().empty());
    EXPECT_EQ(system.faultInjector()->crashDirtyLinesLost.value(), 0u);
    EXPECT_GT(system.faultInjector()->crashDirSwept.value(), 0u);

    now += 1'000;
    const AccessResult r2 =
        system.access(0, 0, sharedRef(0, 0, MemOp::read), now);
    EXPECT_EQ(r2.data, 7u);
}

TEST(CrashSweep, DirtyOwnerLinesAreLostAndServedStale)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);

    Cycles now = 0;
    system.access(1, 0, sharedRef(2, 3, MemOp::write), now, 42);
    const LineAddr line = homeLine(system, 2, 3);
    const std::uint64_t stale = system.memory().read(line);
    ASSERT_NE(stale, 42u);   // the write is still cached dirty

    now += 1'000;
    system.crashHost(1, now);

    // The dead-owned M entry is gone and the loss is recorded.
    EXPECT_EQ(system.deviceDirectory().probe(line), nullptr);
    ASSERT_EQ(system.lostLines().size(), 1u);
    EXPECT_EQ(system.lostLines()[0], line);
    EXPECT_EQ(system.faultInjector()->crashDirtyLinesLost.value(), 1u);

    // Survivors read the stale device copy (default recovery policy).
    now += 1'000;
    const AccessResult r =
        system.access(0, 0, sharedRef(2, 3, MemOp::read), now);
    EXPECT_EQ(r.data, stale);
}

TEST(CrashSweep, L1AndLlcDirtyLineCountedOnceWithLatestValue)
{
    // Regression for the flushHostVolatile capture semantics: a line that
    // is dirty in an L1 *and* the LLC at crash time must be captured
    // exactly once, and the *latest* written value decides lost-ness.
    // The first write here stores the device's current value back (a
    // no-op if it were the one compared), the second stores a different
    // value — keeping the stale first capture (emplace semantics) would
    // compare equal to the device copy and silently miss the loss.
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.coresPerHost = 2;
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);

    Cycles now = 0;
    const LineAddr line = homeLine(system, 3, 1);
    const std::uint64_t stale = system.memory().read(line);
    system.access(1, 0, sharedRef(3, 1, MemOp::write), now, stale);
    now += 1'000;
    system.access(1, 1, sharedRef(3, 1, MemOp::write), now, stale + 1);
    EXPECT_EQ(system.hierarchy(1).dataOf(line), stale + 1);
    EXPECT_EQ(system.memory().read(line), stale);   // still cached dirty

    now += 1'000;
    system.crashHost(1, now);

    // One loss, counted once, against the latest value.
    ASSERT_EQ(system.lostLines().size(), 1u);
    EXPECT_EQ(system.lostLines()[0], line);
    EXPECT_EQ(system.faultInjector()->crashDirtyLinesLost.value(), 1u);

    // Survivors read the stale device copy (default recovery policy).
    now += 1'000;
    const AccessResult r =
        system.access(0, 0, sharedRef(3, 1, MemOp::read), now);
    EXPECT_EQ(r.data, stale);
}

TEST(CrashSweep, DirtyLineMatchingDeviceCopyIsNotLost)
{
    // The converse direction: a dirty cached line whose latest value
    // equals the device copy loses nothing at crash time — loss is a
    // value comparison, not a dirty-bit count.
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);

    Cycles now = 0;
    const LineAddr line = homeLine(system, 3, 2);
    const std::uint64_t same = system.memory().read(line);
    system.access(1, 0, sharedRef(3, 2, MemOp::write), now, same);

    now += 1'000;
    system.crashHost(1, now);
    EXPECT_TRUE(system.lostLines().empty());
    EXPECT_EQ(system.faultInjector()->crashDirtyLinesLost.value(), 0u);

    now += 1'000;
    const AccessResult r =
        system.access(0, 0, sharedRef(3, 2, MemOp::read), now);
    EXPECT_EQ(r.data, same);
}

TEST(CrashSweep, PoisonPolicyPoisonsLostLines)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    cfg.fault.crashRecovery = CrashRecoveryPolicy::poison;
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);

    Cycles now = 0;
    system.access(1, 0, sharedRef(4, 5, MemOp::write), now, 77);
    const LineAddr line = homeLine(system, 4, 5);
    const std::uint64_t stale = system.memory().read(line);

    now += 1'000;
    system.crashHost(1, now);
    ASSERT_EQ(system.lostLines().size(), 1u);
    EXPECT_TRUE(system.faultInjector()->linePersistentlyPoisoned(line));

    // The lost line is served via the uncacheable degraded path.
    now += 1'000;
    const AccessResult r =
        system.access(0, 0, sharedRef(4, 5, MemOp::read), now);
    EXPECT_EQ(r.data, stale);
    EXPECT_GT(system.faultInjector()->degradedAccesses.value(), 0u);
    EXPECT_EQ(system.hierarchy(0).stateOf(line), HostState::I);
}

// ---- Remap-state recovery ----------------------------------------------

TEST(CrashSweep, LocalOnlyIdealExemptFromSwmrCheck)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::localOnly, wl, 1);

    // The Local-only ideal models no cross-host coherence: both hosts
    // fill the same shared line exclusively in their own hierarchies.
    Cycles now = 0;
    system.access(0, 0, sharedRef(0, 0, MemOp::write), now, 7);
    system.access(1, 0, sharedRef(0, 0, MemOp::write), now, 9);
    const LineAddr line = homeLine(system, 0, 0);
    EXPECT_NE(system.hierarchy(0).stateOf(line), HostState::I);
    EXPECT_NE(system.hierarchy(1).stateOf(line), HostState::I);

    // The invariant checker must not apply SWMR to the idealisation
    // (it used to panic here the first time a crash event ran under
    // localOnly with a multiply-cached line).
    EXPECT_NO_THROW(system.checkInvariants());
    now += 1'000;
    EXPECT_NO_THROW(system.crashHost(1, now));

    // The dead-host check still applies: host 1's caches were flushed.
    EXPECT_EQ(system.hierarchy(1).stateOf(line), HostState::I);
    now += 1'000;
    EXPECT_NO_THROW(system.rejoinHost(1, now));
}

TEST(CrashRemap, InFlightPromotionAborted)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::pipmFull, wl, 1);
    PipmState *pipm = system.pipmState();
    ASSERT_NE(pipm, nullptr);

    // Distinct-line reads from host 0 fire the vote (threshold 8) but
    // migrate no line: the local entry's bitmap is still empty.
    Cycles now = 0;
    const PageFrame page =
        pageOf(pageBase(system.space().sharedMapping(0).frame));
    for (unsigned li = 0; li < 16 && !pipm->hasLocalEntry(0, page); ++li) {
        system.access(0, 0, sharedRef(0, li, MemOp::read), now);
        now += 1'000;
    }
    ASSERT_TRUE(pipm->hasLocalEntry(0, page));
    EXPECT_EQ(pipm->migratedLinesOn(0), 0u);

    system.crashHost(0, now);

    // The crash resolved the in-flight promotion via the abort path:
    // pre-vote state, no losses, no revocation counted.
    EXPECT_FALSE(pipm->hasLocalEntry(0, page));
    EXPECT_EQ(pipm->migratedHostOf(page), invalidHost);
    EXPECT_TRUE(system.lostLines().empty());
    EXPECT_EQ(pipm->revocations.value(), 0u);
    EXPECT_GT(system.faultInjector()->crashPagesReclaimed.value(), 0u);

    // The survivor still reads the page normally.
    const AccessResult r =
        system.access(1, 0, sharedRef(0, 0, MemOp::read), now + 1'000);
    (void)r;
}

/**
 * Promote page 0 to host 0 under PIPM, dirty every line of it (line i
 * holds 1000 + i), stream other pages until some of those lines migrate
 * into host 0's local frame, then crash host 0.
 * @return the crash time
 */
Cycles
crashAfterPartialMigration(MultiHostSystem &system)
{
    PipmState *pipm = system.pipmState();
    Cycles now = 0;
    const PageFrame page =
        pageOf(pageBase(system.space().sharedMapping(0).frame));

    // Promote page 0 to host 0 and dirty all its lines.
    for (unsigned li = 0; li < linesPerPage; ++li) {
        system.access(0, 0, sharedRef(0, li, MemOp::write), now,
                      1'000 + li);
        now += 500;
    }
    EXPECT_TRUE(pipm->hasLocalEntry(0, page));

    // Stream reads over many other pages to evict page 0's M lines,
    // incrementally migrating them into host 0's local frame (case 1).
    for (std::uint64_t p = 8; p < 56; ++p) {
        for (unsigned li = 0; li < linesPerPage; ++li) {
            system.access(0, 0, sharedRef(p, li, MemOp::read), now);
            now += 100;
        }
    }
    EXPECT_GT(pipm->migratedLinesOn(0), 0u);

    system.crashHost(0, now);
    return now;
}

TEST(CrashRemap, PartialBitmapReintegratedWithLossAccounting)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::pipmFull, wl, 1);
    PipmState *pipm = system.pipmState();
    const PageFrame page =
        pageOf(pageBase(system.space().sharedMapping(0).frame));
    const Cycles now = crashAfterPartialMigration(system);
    ASSERT_FALSE(HasFailure());

    // All remap state of the dead host is reclaimed; the dirtied lines of
    // page 0 (whose latest values lived only with host 0) are lost.
    EXPECT_EQ(pipm->migratedLinesOn(0), 0u);
    EXPECT_EQ(pipm->migratedPagesOn(0), 0u);
    EXPECT_EQ(pipm->migratedHostOf(page), invalidHost);
    EXPECT_GE(system.lostLines().size(), 1u);
    EXPECT_GT(system.faultInjector()->crashLinesReclaimed.value(), 0u);
    EXPECT_GT(system.faultInjector()->crashRecoveryCycles.value(), 0u);

    // Every line of page 0 now serves the (stale) CXL home copy.
    for (unsigned li = 0; li < 4; ++li) {
        const LineAddr line = homeLine(system, 0, li);
        const std::uint64_t home = system.memory().read(line);
        const AccessResult r =
            system.access(1, 0, sharedRef(0, li, MemOp::read),
                          now + 1'000 * (li + 1));
        EXPECT_EQ(r.data, home);
        EXPECT_NE(r.data, 1'000u + li);   // the written values died
    }
}

TEST(CrashRemap, LostLinesDoNotDependOnTrackValues)
{
    // Any fault-enabled run tracks values (lost-line accounting compares
    // them), so a hand-made crash loses the same lines whether or not
    // the configuration asks for values.
    ThrowOnErrorScope guard;
    std::vector<LineAddr> lost[2];
    for (const bool track : {false, true}) {
        SystemConfig cfg = testConfig();
        cfg.fault = quietFaults();
        cfg.trackValues = track;
        FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
        MultiHostSystem system(cfg, Scheme::pipmFull, wl, 1);
        EXPECT_TRUE(system.memory().tracksValues());
        crashAfterPartialMigration(system);
        lost[track] = system.lostLines();
    }
    ASSERT_FALSE(lost[0].empty());
    EXPECT_EQ(lost[0], lost[1]);
}

// ---- Rejoin and epochs --------------------------------------------------

TEST(CrashRejoin, ColdStructuresAndStaleEpochRejection)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);

    Cycles now = 0;
    system.access(1, 0, sharedRef(1, 0, MemOp::write), now, 9);
    const LineAddr warm = homeLine(system, 1, 0);
    const std::uint64_t warm_home = system.memory().read(warm);
    ASSERT_NE(system.hierarchy(1).stateOf(warm), HostState::I);

    now += 1'000;
    system.crashHost(1, now, now + 5'000);
    EXPECT_EQ(system.hostDownUntil(1), now + 5'000);
    EXPECT_THROW(
        system.access(1, 0, sharedRef(1, 0, MemOp::read), now + 100),
        SimError);

    now += 5'000;
    system.rejoinHost(1, now);
    EXPECT_TRUE(system.hostAlive(1));
    EXPECT_EQ(system.hostEpoch(1), 2u);
    EXPECT_EQ(system.hostDownUntil(1), 0u);
    // Cold caches after rejoin.
    EXPECT_EQ(system.hierarchy(1).stateOf(warm), HostState::I);

    // Hand-craft a stale in-flight reference: an M entry stamped under
    // host 1's pre-crash epoch. The next access must reject it on the
    // epoch check and serve the device copy instead of forwarding.
    const LineAddr stale_line = homeLine(system, 1, 1);
    const std::uint64_t home = system.memory().read(stale_line);
    DirEntry e;
    e.state = DevState::M;
    e.sharers = 1u << 1;
    e.ownerEpoch = 0;   // host 1 now runs in epoch 2
    system.deviceDirectory().allocate(stale_line, e);

    const AccessResult r =
        system.access(0, 0, sharedRef(1, 1, MemOp::read), now + 1'000);
    EXPECT_EQ(r.data, home);
    EXPECT_EQ(system.faultInjector()->staleEpochDrops.value(), 1u);
    system.checkInvariants();

    // The rejoined host participates normally again — but its own
    // pre-crash write of 9 died dirty in its cache, so it reads back the
    // stale device copy of the line it lost.
    ASSERT_EQ(system.lostLines().size(), 1u);
    EXPECT_EQ(system.lostLines()[0], warm);
    const AccessResult r2 =
        system.access(1, 0, sharedRef(1, 0, MemOp::read), now + 2'000);
    EXPECT_EQ(r2.data, warm_home);
}

TEST(CrashRejoin, RejoinBeforeSuspicionReclaimsFirst)
{
    // Under the lease detector (DESIGN.md §11) a crash is reclaimed
    // lazily. A host whose outage is shorter than its lease must still
    // not readmit over its own stale directory state: rejoin forces the
    // deferred reclamation (counting the suspicion) before coming back.
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults();
    cfg.fault.leaseNs = 20'000.0;
    cfg.fault.heartbeatIntervalNs = 4'000.0;
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);
    ASSERT_TRUE(system.detectionEnabled());

    Cycles now = 0;
    system.access(1, 0, sharedRef(2, 3, MemOp::write), now, 42);
    const LineAddr line = homeLine(system, 2, 3);

    now += 1'000;
    system.crashHost(1, now, now + 5'000);   // outage << 80k-cycle lease
    // Deferred: the dead host's M entry is still in the directory.
    ASSERT_NE(system.deviceDirectory().probe(line), nullptr);
    EXPECT_TRUE(system.lostLines().empty());

    now += 5'000;
    system.rejoinHost(1, now);
    EXPECT_TRUE(system.hostAlive(1));
    EXPECT_EQ(system.hostEpoch(1), 2u);
    // The rejoin swept the old state first and accounted the loss.
    EXPECT_EQ(system.faultInjector()->suspicions.value(), 1u);
    EXPECT_EQ(system.faultInjector()->falseSuspicions.value(), 0u);
    EXPECT_EQ(system.deviceDirectory().probe(line), nullptr);
    ASSERT_EQ(system.lostLines().size(), 1u);
    EXPECT_EQ(system.lostLines()[0], line);
    system.checkInvariants();

    // The readmitted host reads back the stale surviving copy.
    const AccessResult r = system.access(
        1, 0, sharedRef(2, 3, MemOp::read), now + 1'000);
    EXPECT_EQ(r.data, system.memory().read(line));
}

// ---- Full-run behaviour -------------------------------------------------

TEST(CrashRun, ZeroCrashRateBitIdenticalToFaultOnlyConfig)
{
    SystemConfig pr1 = testConfig();
    pr1.fault = paperFaultConfig(3);
    SystemConfig zero = testConfig();
    zero.fault = paperCrashFaultConfig(3, 0.0, 0.0);

    auto wl = smallWorkload();
    const RunResult a = runExperiment(pr1, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(zero, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
    EXPECT_EQ(a.linkCrcErrors, b.linkCrcErrors);
    EXPECT_EQ(a.poisonEvents, b.poisonEvents);
    EXPECT_EQ(a.migrationAborts, b.migrationAborts);
    EXPECT_EQ(a.pipmLinesIn, b.pipmLinesIn);
    EXPECT_EQ(b.hostCrashes, 0u);
    EXPECT_EQ(b.hostRejoins, 0u);
    EXPECT_EQ(b.crashDirtyLinesLost, 0u);
}

TEST(CrashRun, SameSeedReplayIsDeterministic)
{
    SystemConfig cfg = testConfig();
    cfg.fault = paperCrashFaultConfig(3, 20'000.0, 10'000.0);

    auto wl = smallWorkload();
    const RunResult a = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.hostCrashes, b.hostCrashes);
    EXPECT_EQ(a.hostRejoins, b.hostRejoins);
    EXPECT_EQ(a.crashLinesReclaimed, b.crashLinesReclaimed);
    EXPECT_EQ(a.crashDirtyLinesLost, b.crashDirtyLinesLost);
    EXPECT_EQ(a.crashRecoveryCycles, b.crashRecoveryCycles);
    EXPECT_GT(a.hostCrashes, 0u);
}

TEST(CrashRun, NeverRejoiningHostRetiresItsCores)
{
    SystemConfig cfg = testConfig();
    cfg.fault = paperCrashFaultConfig(7, 20'000.0, 0.0);

    auto wl = smallWorkload();
    RunConfig run = shortRun();
    run.checkInvariantsEvery = 4'096;
    // Measure from cycle 0: a crash landing in warmup would be wiped
    // from the counters by the measurement-start stats reset.
    run.warmupRefsPerCore = 0;
    const RunResult r = runExperiment(cfg, Scheme::pipmFull, *wl, run);
    // With 2 hosts the schedule can kill at most one; the run still
    // completes with the survivor doing all remaining work.
    EXPECT_EQ(r.hostCrashes, 1u);
    EXPECT_EQ(r.hostRejoins, 0u);
}

// ---- Randomised crash-schedule acceptance -------------------------------

TEST(CrashAcceptance, FourHostScheduleCleanAgainstOracle)
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;
    cfg.fault = paperCrashFaultConfig();

    const FaultCheckResult res =
        checkFaultSchedules(cfg, Scheme::pipmFull, 2, 20'000);
    EXPECT_TRUE(res.ok) << res.violation;
    EXPECT_GE(res.totals.hostCrashes, 2u);
    EXPECT_GE(res.totals.hostRejoins, 1u);
}

TEST(CrashAcceptance, EnvKnobRunsPeriodicInvariantChecks)
{
    SystemConfig cfg = testConfig();
    cfg.fault = paperCrashFaultConfig(9, 20'000.0, 10'000.0);

    setenv("PIPM_CHECK_INVARIANTS", "2048", 1);
    auto wl = smallWorkload();
    const RunResult r = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    unsetenv("PIPM_CHECK_INVARIANTS");
    EXPECT_GT(r.hostCrashes, 0u);
}

TEST(CrashAcceptance, CombinedFailureClassesUnderInvariantChecks)
{
    // Crashes, gray-failure stalls, lease detection, poison and link
    // faults all at once, with the periodic cross-structure invariant
    // checks armed: the run must complete clean and replay bit-for-bit.
    SystemConfig cfg = testConfig();
    cfg.fault = paperSuspicionFaultConfig(9);
    cfg.fault.poisonRate = 0.01;
    cfg.fault.crashMeanIntervalNs = 200'000.0;
    cfg.fault.crashRejoinNs = 50'000.0;

    setenv("PIPM_CHECK_INVARIANTS", "2048", 1);
    auto wl = smallWorkload();
    const RunResult a = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    unsetenv("PIPM_CHECK_INVARIANTS");
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.suspicions, b.suspicions);
    EXPECT_EQ(a.falseSuspicions, b.falseSuspicions);
    EXPECT_EQ(a.txnRetries, b.txnRetries);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_GT(a.linkCrcErrors, 0u);
}

} // namespace
} // namespace pipm
