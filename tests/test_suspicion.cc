/**
 * @file
 * Lease-based failure detection tests (DESIGN.md §11): configuration
 * validation of the new lease/timeout/stall knobs, stall-window schedule
 * determinism on its own RNG stream, deferred reclamation of a dead host
 * until its lease expires, transaction-retry exhaustion suspecting an
 * unresponsive owner, gray-failure fencing of a falsely suspected (alive)
 * host with cold readmission, oracle-mode equivalence when the detector
 * has nothing to detect, and the randomised suspicion-schedule checker.
 */

#include <gtest/gtest.h>

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

/**
 * Fault config with every rate zero but the lease detector armed, so
 * tests control exactly when hosts die, stall or get suspected. Lease
 * 20 us (80k cycles), heartbeat 4 us, 2 retries on a 2 us timeout,
 * readmit delay 10 us (40k cycles).
 */
FaultConfig
leaseFaults(std::uint64_t seed = 1)
{
    FaultConfig f = quietFaults(seed);
    f.leaseNs = 20'000.0;
    f.heartbeatIntervalNs = 4'000.0;
    f.txnTimeoutNs = 2'000.0;
    f.txnRetryLimit = 2;
    f.txnBackoffBaseNs = 500.0;
    f.txnBackoffMaxExp = 2;
    f.readmitDelayNs = 10'000.0;
    return f;
}

// ---- Configuration validation -------------------------------------------

TEST(SuspicionConfig, ValidationRejectsBadKnobs)
{
    ThrowOnErrorScope guard;

    // A heartbeat period that is not shorter than the lease would let
    // every lease expire between renewals.
    FaultConfig f = leaseFaults();
    f.heartbeatIntervalNs = f.leaseNs;
    EXPECT_THROW(f.validate(), SimError);

    f = leaseFaults();
    f.heartbeatIntervalNs = 0.0;
    EXPECT_THROW(f.validate(), SimError);

    f = leaseFaults();
    f.leaseNs = -1.0;
    EXPECT_THROW(f.validate(), SimError);

    // The detector needs a positive per-attempt timeout.
    f = leaseFaults();
    f.txnTimeoutNs = 0.0;
    EXPECT_THROW(f.validate(), SimError);

    // A zero retry budget with a backoff armed can never fire it.
    f = leaseFaults();
    f.txnRetryLimit = 0;
    EXPECT_THROW(f.validate(), SimError);
    f.txnBackoffBaseNs = 0.0;
    EXPECT_NO_THROW(f.validate());

    // Gray-failure stalls are only observable through a lease.
    f = FaultConfig{};
    f.enabled = true;
    f.stallMeanIntervalNs = 50'000.0;
    EXPECT_THROW(f.validate(), SimError);

    f = leaseFaults();
    f.stallMeanIntervalNs = 50'000.0;
    f.stallMaxEvents = 0;
    EXPECT_THROW(f.validate(), SimError);

    EXPECT_NO_THROW(paperSuspicionFaultConfig().validate());
    EXPECT_GT(paperSuspicionFaultConfig().leaseNs, 0.0);
}

// ---- Stall-window schedule ----------------------------------------------

TEST(SuspicionSchedule, StallWindowsDeterministicOnSeparateStream)
{
    const FaultConfig crash_only =
        paperCrashFaultConfig(11, 50'000.0, 20'000.0);
    FaultConfig stalls = crash_only;
    stalls.leaseNs = 20'000.0;
    stalls.heartbeatIntervalNs = 4'000.0;
    stalls.stallMeanIntervalNs = 60'000.0;
    stalls.stallWindowNs = 30'000.0;

    FaultInjector a(crash_only, 4, 99);
    FaultInjector b(stalls, 4, 99);
    FaultInjector c(stalls, 4, 99);

    // Enabling stall windows must not shift the crash schedule: the
    // windows come from their own derived stream.
    ASSERT_EQ(a.crashSchedule().size(), b.crashSchedule().size());
    for (std::size_t i = 0; i < a.crashSchedule().size(); ++i) {
        EXPECT_EQ(a.crashSchedule()[i].at, b.crashSchedule()[i].at);
        EXPECT_EQ(a.crashSchedule()[i].host, b.crashSchedule()[i].host);
        EXPECT_EQ(a.crashSchedule()[i].rejoin,
                  b.crashSchedule()[i].rejoin);
        EXPECT_EQ(a.crashSchedule()[i].downUntil,
                  b.crashSchedule()[i].downUntil);
    }

    // Without a stall rate there are no windows at all.
    std::size_t total = 0;
    for (HostId h = 0; h < 4; ++h)
        total += a.stallWindows(h).size();
    EXPECT_EQ(total, 0u);

    // Same config, same seed: the window schedule replays bit-for-bit,
    // and every per-host list is sorted, non-overlapping and bounded.
    bool any = false;
    total = 0;
    for (HostId h = 0; h < 4; ++h) {
        const auto &wb = b.stallWindows(h);
        const auto &wc = c.stallWindows(h);
        ASSERT_EQ(wb.size(), wc.size());
        for (std::size_t i = 0; i < wb.size(); ++i) {
            EXPECT_EQ(wb[i], wc[i]);
            EXPECT_LT(wb[i].first, wb[i].second);
            if (i > 0) {
                EXPECT_GE(wb[i].first, wb[i - 1].second);
            }
        }
        any = any || !wb.empty();
        total += wb.size();
    }
    EXPECT_TRUE(any);
    EXPECT_LE(total, static_cast<std::size_t>(stalls.stallMaxEvents));

    // The side-effect-free query agrees with the windows: covered
    // instants report the window end, instants outside report 0.
    for (HostId h = 0; h < 4; ++h) {
        for (const auto &w : b.stallWindows(h)) {
            const Cycles mid = w.first + (w.second - w.first) / 2;
            EXPECT_EQ(b.stallUntilAt(h, mid), w.second);
            EXPECT_EQ(b.stallUntilAt(h, w.second), 0u);
        }
    }
}

// ---- Deferred reclamation -----------------------------------------------

TEST(SuspicionReclaim, DeadHostReclaimDeferredUntilLeaseExpiry)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = leaseFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);
    ASSERT_TRUE(system.detectionEnabled());
    FaultInjector &faults = *system.faultInjector();

    Cycles now = 0;
    system.access(1, 0, sharedRef(2, 3, MemOp::write), now, 42);
    const LineAddr line = homeLine(system, 2, 3);
    const std::uint64_t stale = system.memory().read(line);
    ASSERT_NE(stale, 42u);

    now += 1'000;
    system.crashHost(1, now);
    EXPECT_FALSE(system.hostAlive(1));
    EXPECT_EQ(system.hostEpoch(1), 1u);

    // The device has not noticed yet: the dead host's M entry lingers,
    // nothing is lost, and the relaxed invariants tolerate it.
    ASSERT_NE(system.deviceDirectory().probe(line), nullptr);
    EXPECT_TRUE(system.lostLines().empty());
    EXPECT_EQ(faults.suspicions.value(), 0u);
    system.checkInvariants();

    // The lease expires: the detector suspects the host and runs the
    // full reclamation, recording the dirty loss.
    system.tick(now + nsToCycles(cfg.fault.leaseNs) +
                nsToCycles(cfg.fault.heartbeatIntervalNs));
    EXPECT_EQ(faults.suspicions.value(), 1u);
    EXPECT_EQ(faults.falseSuspicions.value(), 0u);
    EXPECT_EQ(system.deviceDirectory().probe(line), nullptr);
    ASSERT_EQ(system.lostLines().size(), 1u);
    EXPECT_EQ(system.lostLines()[0], line);
    EXPECT_EQ(faults.crashDirtyLinesLost.value(), 1u);

    // Survivors read the stale device copy, exactly like oracle mode.
    const AccessResult r = system.access(
        0, 0, sharedRef(2, 3, MemOp::read), now + 200'000);
    EXPECT_EQ(r.data, stale);
    system.checkInvariants();
}

TEST(SuspicionTimeout, RetryExhaustionSuspectsDeadOwner)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = leaseFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);
    FaultInjector &faults = *system.faultInjector();

    Cycles now = 0;
    system.access(1, 0, sharedRef(2, 3, MemOp::write), now, 42);
    const LineAddr line = homeLine(system, 2, 3);
    const std::uint64_t stale = system.memory().read(line);

    now += 1'000;
    system.crashHost(1, now);
    ASSERT_NE(system.deviceDirectory().probe(line), nullptr);

    // Long before the lease expires, a demand access forwards to the
    // dead owner. Each attempt times out; after the retry budget the
    // requester gives up, the owner is suspected and reclaimed, and the
    // access restarts against the swept directory.
    now += 1'000;
    const AccessResult r =
        system.access(0, 0, sharedRef(2, 3, MemOp::read), now);
    EXPECT_EQ(r.data, stale);
    EXPECT_EQ(faults.txnTimeouts.value(), 3u);   // 1 try + 2 retries
    EXPECT_EQ(faults.txnRetries.value(), 2u);
    EXPECT_EQ(faults.txnAbandoned.value(), 1u);
    EXPECT_EQ(faults.suspicions.value(), 1u);
    EXPECT_EQ(faults.falseSuspicions.value(), 0u);
    // The timeouts and backoffs are on the demand path's critical path.
    EXPECT_GT(r.latency, nsToCycles(3 * cfg.fault.txnTimeoutNs));
    // The access restarted against the swept directory and re-allocated
    // a fresh S entry for the surviving reader.
    const DirEntry *entry = system.deviceDirectory().probe(line);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->has(0));
    EXPECT_FALSE(entry->has(1));
    ASSERT_EQ(system.lostLines().size(), 1u);
    system.checkInvariants();
}

TEST(SuspicionReclaim, NaiveReclaimSkipsDeadUnsweptOwner)
{
    // pipm-naive: host 0 owns a partially migrated page, and host 1
    // takes one of its migrated lines in M through the naive redirect,
    // then dies and lingers unswept. Reclaiming host 0 must not read
    // host 1's (empty) cache; the line goes through the loss check, and
    // host 1's own sweep later drops its entry.
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = leaseFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::pipmNaive, wl, 7);

    Cycles now = 0;
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        system.access(0, 0, sharedRef(2, i, MemOp::write), now, i);
        now += 5'000;
    }
    for (std::uint64_t p = 20; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2) {
            system.access(0, 0, sharedRef(p, l, MemOp::read), now);
            now += 500;
        }
    }
    const PageFrame page = pageOf(pageBase(system.space().sharedFrame(2)));
    unsigned li = linesPerPage;
    for (unsigned l = 0; l < linesPerPage && li == linesPerPage; ++l) {
        if (system.pipmState()->lineMigrated(0, page, l))
            li = l;
    }
    ASSERT_LT(li, linesPerPage);

    system.access(1, 0, sharedRef(2, li, MemOp::write), now, 99);
    const LineAddr line = homeLine(system, 2, li);
    const DirEntry *entry = system.deviceDirectory().probe(line);
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->state, DevState::M);
    ASSERT_TRUE(entry->has(1));

    system.crashHost(1, now + 1'000);
    system.crashHost(0, now + 2'000);
    EXPECT_NO_THROW(system.suspectHost(0, now + 3'000));
    EXPECT_FALSE(system.pipmState()->lineMigrated(0, page, li));
    EXPECT_NO_THROW(system.suspectHost(1, now + 4'000));
    EXPECT_EQ(system.deviceDirectory().probe(line), nullptr);
    system.checkInvariants();
}

// ---- Gray-failure fencing -----------------------------------------------

TEST(SuspicionFence, FalseSuspicionFencesAliveHostAndReadmitsCold)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = leaseFaults();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem system(cfg, Scheme::native, wl, 1);
    FaultInjector &faults = *system.faultInjector();

    Cycles now = 0;
    system.access(1, 0, sharedRef(4, 5, MemOp::write), now, 77);
    const LineAddr line = homeLine(system, 4, 5);
    const std::uint64_t stale = system.memory().read(line);

    // Suspect host 1 while it is demonstrably alive: the device cannot
    // tell a zombie from a corpse, so the host is fenced — epoch bumped,
    // volatile state treated exactly like a crash, dirty write lost.
    now += 1'000;
    system.suspectHost(1, now);
    EXPECT_EQ(faults.suspicions.value(), 1u);
    EXPECT_EQ(faults.falseSuspicions.value(), 1u);
    EXPECT_FALSE(system.hostAlive(1));
    EXPECT_EQ(system.hostEpoch(1), 1u);
    EXPECT_EQ(system.deviceDirectory().probe(line), nullptr);
    ASSERT_EQ(system.lostLines().size(), 1u);
    EXPECT_EQ(system.lostLines()[0], line);

    const Cycles back = system.hostDownUntil(1);
    EXPECT_EQ(back, now + nsToCycles(cfg.fault.readmitDelayNs));

    // Just before the readmit delay elapses, the zombie is still fenced.
    system.tick(back - 1);
    EXPECT_FALSE(system.hostAlive(1));
    EXPECT_EQ(faults.fencedRequests.value(), 0u);

    // Its first post-fence request is NACKed on the stale epoch and the
    // host readmits through cold rejoin under a fresh (even) epoch.
    system.tick(back);
    EXPECT_TRUE(system.hostAlive(1));
    EXPECT_EQ(system.hostEpoch(1), 2u);
    EXPECT_EQ(faults.fencedRequests.value(), 1u);
    EXPECT_EQ(faults.hostRejoins.value(), 1u);
    EXPECT_EQ(system.hierarchy(1).stateOf(line), HostState::I);

    // The readmitted host participates again — reading back the stale
    // surviving copy of the line its fence lost.
    const AccessResult r = system.access(
        1, 0, sharedRef(4, 5, MemOp::read), back + 1'000);
    EXPECT_EQ(r.data, stale);
    system.checkInvariants();
}

// ---- Full-run behaviour -------------------------------------------------

TEST(SuspicionRun, LeaseWithNothingToDetectMatchesOracleRun)
{
    // Same seed, same workload, no crashes and no stalls: arming the
    // detector must not change a single measured cycle relative to the
    // oracle (leaseNs == 0) model.
    SystemConfig oracle = testConfig();
    oracle.fault = paperCrashFaultConfig(3, 0.0, 0.0);
    SystemConfig lease = testConfig();
    lease.fault = paperCrashFaultConfig(3, 0.0, 0.0);
    lease.fault.leaseNs = 20'000.0;
    lease.fault.heartbeatIntervalNs = 4'000.0;

    auto wl = smallWorkload();
    const RunResult a = runExperiment(oracle, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(lease, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
    EXPECT_EQ(a.linkCrcErrors, b.linkCrcErrors);
    EXPECT_EQ(a.poisonEvents, b.poisonEvents);
    EXPECT_EQ(a.pipmPromotions, b.pipmPromotions);
    EXPECT_EQ(a.pipmLinesIn, b.pipmLinesIn);
    EXPECT_EQ(b.suspicions, 0u);
    EXPECT_EQ(b.falseSuspicions, 0u);
    EXPECT_EQ(b.fencedRequests, 0u);
    EXPECT_EQ(b.txnTimeouts, 0u);
    EXPECT_EQ(b.txnRetries, 0u);
    EXPECT_EQ(b.stallWindows, 0u);
}

TEST(SuspicionRun, SameSeedReplayIsDeterministic)
{
    SystemConfig cfg = testConfig();
    cfg.fault = paperSuspicionFaultConfig(5);

    auto wl = smallWorkload();
    const RunResult a = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.suspicions, b.suspicions);
    EXPECT_EQ(a.falseSuspicions, b.falseSuspicions);
    EXPECT_EQ(a.fencedRequests, b.fencedRequests);
    EXPECT_EQ(a.txnTimeouts, b.txnTimeouts);
    EXPECT_EQ(a.txnRetries, b.txnRetries);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.hostCrashes, b.hostCrashes);
    EXPECT_EQ(a.crashDirtyLinesLost, b.crashDirtyLinesLost);
    EXPECT_GT(a.execCycles, 0u);
}

// ---- Randomised suspicion-schedule acceptance ---------------------------

TEST(SuspicionAcceptance, FourHostScheduleCleanAgainstOracle)
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;

    cfg.fault = paperSuspicionFaultConfig();

    const FaultCheckResult res =
        checkFaultSchedules(cfg, Scheme::pipmFull, 2, 5'000);
    EXPECT_TRUE(res.ok) << res.violation;
    EXPECT_GE(res.totals.suspicions, 1u);
}

} // namespace
} // namespace pipm
