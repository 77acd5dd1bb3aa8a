/**
 * @file
 * Fault-injection subsystem tests: configuration validation, deterministic
 * replay, zero-rate identity, link CRC replay and retraining behaviour,
 * poisoned-line handling (transient scrub and persistent degraded path),
 * migration abort/rollback, link-degradation backoff, and the randomised
 * fault-schedule checker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
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

TEST(FaultConfigValidate, RejectsNonsense)
{
    ThrowOnErrorScope guard;
    FaultConfig f;
    f.linkErrorRate = 1.5;
    EXPECT_THROW(f.validate(), SimError);

    f = FaultConfig{};
    f.retrainIntervalNs = 1'000.0;
    f.retrainWindowNs = 1'000.0;   // window must be < interval
    EXPECT_THROW(f.validate(), SimError);

    f = FaultConfig{};
    f.backoffWindow = 0;
    EXPECT_THROW(f.validate(), SimError);

    f = FaultConfig{};
    f.persistentPoisonFrac = -0.1;
    EXPECT_THROW(f.validate(), SimError);

    EXPECT_NO_THROW(paperFaultConfig().validate());
}

TEST(FaultConfigValidate, SystemValidateCoversMachineGeometry)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.link.bytesPerNs = 0.0;
    EXPECT_THROW(cfg.validate(), SimError);

    cfg = testConfig();
    cfg.pipm.globalCounterBits = 0;
    EXPECT_THROW(cfg.validate(), SimError);

    cfg = testConfig();
    cfg.cxlDram.channels = 0;
    EXPECT_THROW(cfg.validate(), SimError);

    // runExperiment and the system constructor both reject early.
    cfg = testConfig();
    cfg.fault.enabled = true;
    cfg.fault.poisonRate = 2.0;
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    EXPECT_THROW(runExperiment(cfg, Scheme::native, wl, shortRun()),
                 SimError);
}

TEST(FaultReplay, ZeroRatesAreIdenticalToDisabled)
{
    SystemConfig plain = testConfig();
    SystemConfig quiet = testConfig();
    quiet.fault = quietFaults();

    auto wl = smallWorkload();
    const RunResult a = runExperiment(plain, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(quiet, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
    EXPECT_EQ(a.pipmLinesIn, b.pipmLinesIn);
    EXPECT_EQ(a.pipmPromotions, b.pipmPromotions);
    EXPECT_EQ(b.linkCrcErrors, 0u);
    EXPECT_EQ(b.linkRetrainEvents, 0u);
    EXPECT_EQ(b.poisonEvents, 0u);
    EXPECT_EQ(b.migrationAborts, 0u);
}

TEST(FaultReplay, SameSeedIsBitForBitDeterministic)
{
    SystemConfig cfg = testConfig();
    cfg.fault = paperFaultConfig(3);

    auto wl = smallWorkload();
    const RunResult a = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
    EXPECT_EQ(a.linkCrcErrors, b.linkCrcErrors);
    EXPECT_EQ(a.linkRetrainEvents, b.linkRetrainEvents);
    EXPECT_EQ(a.poisonEvents, b.poisonEvents);
    EXPECT_EQ(a.migrationAborts, b.migrationAborts);
    EXPECT_EQ(a.migrationsDeferred, b.migrationsDeferred);
    EXPECT_GT(a.linkCrcErrors, 0u);

    SystemConfig other = cfg;
    other.fault.seed = 4;
    const RunResult c = runExperiment(other, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_NE(a.execCycles, c.execCycles);
}

TEST(FaultReplay, MetaCorruptionOffLeavesFaultRunsBitIdentical)
{
    // The §12 machinery must be invisible while its master switch is
    // off: with metaCorruptMeanIntervalNs == 0, tweaking every other
    // meta knob must replay the heaviest existing schedule
    // (crash + lease detector + gray-failure stalls) bit-for-bit.
    SystemConfig plain = testConfig();
    plain.fault = paperSuspicionFaultConfig(3);

    SystemConfig tweaked = plain;
    tweaked.fault.metaShadowHitFrac = 0.95;
    tweaked.fault.metaJournalPages = 2;
    tweaked.fault.metaScrubIntervalNs = 1.0;
    tweaked.fault.metaScrubBudget = 1;
    tweaked.fault.metaBreakerThreshold = 1;
    tweaked.fault.metaBreakerGroupPages = 1;
    tweaked.fault.metaCorruptMeanIntervalNs = 0.0;   // master switch off

    auto wl = smallWorkload();
    const RunResult a = runExperiment(plain, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(tweaked, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
    EXPECT_EQ(a.linkCrcErrors, b.linkCrcErrors);
    EXPECT_EQ(a.linkRetrainEvents, b.linkRetrainEvents);
    EXPECT_EQ(a.poisonEvents, b.poisonEvents);
    EXPECT_EQ(a.migrationAborts, b.migrationAborts);
    EXPECT_EQ(a.migrationsDeferred, b.migrationsDeferred);
    EXPECT_GT(a.linkCrcErrors, 0u);
}

TEST(FaultLink, CrcReplayAddsLatencyAndWireBytes)
{
    const SystemConfig cfg = testConfig();
    FaultConfig f = quietFaults(5);
    f.linkErrorRate = 1.0;   // corrupt every message
    FaultInjector faults(f, 1, 5);

    CxlLink clean(cfg.link, "clean");
    CxlLink faulty(cfg.link, "faulty");
    faulty.attachFaults(&faults, 0);

    const Cycles base = clean.transfer(LinkDir::toDevice, CxlFlits::data,
                                       0);
    const Cycles replayed = faulty.transfer(LinkDir::toDevice,
                                            CxlFlits::data, 0);
    EXPECT_GT(replayed, base);
    EXPECT_EQ(faulty.crcErrors.value(), 1u);
    EXPECT_EQ(faulty.replayBytes.value(), CxlFlits::data);
    EXPECT_EQ(faulty.bytesToDevice.value(), 2u * CxlFlits::data);
    EXPECT_EQ(faults.linkErrors.value(), 1u);
}

TEST(FaultLink, RetrainingStallsTheLinkOncePerWindow)
{
    FaultConfig f = quietFaults(7);
    f.retrainIntervalNs = 1'000.0;
    f.retrainWindowNs = 100.0;
    FaultInjector faults(f, 2, 7);

    const Cycles interval = nsToCycles(1'000.0);
    bool stalled = false;
    for (Cycles now = 0; now < 3 * interval; now += 7)
        stalled = faults.retrainDelay(0, now) > 0 || stalled;
    EXPECT_TRUE(stalled);
    // The sweep spans three interval lengths; depending on where the
    // host's random phase falls it clips either the first or an extra
    // trailing window.
    EXPECT_GE(faults.retrainEvents.value(), 3u);
    EXPECT_LE(faults.retrainEvents.value(), 4u);
    EXPECT_GT(faults.retrainStallCycles.value(), 0u);

    // Host 1 has its own phase; with zero interval nothing ever stalls.
    FaultConfig off = quietFaults(7);
    FaultInjector no_retrain(off, 2, 7);
    for (Cycles now = 0; now < 3 * interval; now += 7)
        EXPECT_EQ(no_retrain.retrainDelay(1, now), 0u);
    EXPECT_EQ(no_retrain.retrainEvents.value(), 0u);
}

TEST(FaultPoison, PersistentPoisonServedByDegradedUncacheablePath)
{
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults(11);
    cfg.fault.poisonRate = 1.0;
    cfg.fault.persistentPoisonFrac = 1.0;   // every line poisoned forever
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    FaultInjector &faults = *sys.faultInjector();

    Cycles now = 0;
    const AccessResult w =
        sys.access(0, 0, sharedRef(1, 3, MemOp::write), now, 777);
    now += 10'000;
    const AccessResult r =
        sys.access(1, 0, sharedRef(1, 3, MemOp::read), now);
    EXPECT_EQ(r.data, 777u);
    EXPECT_GT(w.latency, 0u);
    EXPECT_GE(faults.poisonPersistent.value(), 1u);
    EXPECT_EQ(faults.degradedAccesses.value(), 2u);

    // The poisoned line is never cached on either host and never gets a
    // directory entry; checkInvariants asserts exactly this.
    const LineAddr line = homeLine(sys, 1, 3);
    EXPECT_EQ(sys.hierarchy(0).stateOf(line), HostState::I);
    EXPECT_EQ(sys.hierarchy(1).stateOf(line), HostState::I);
    EXPECT_EQ(sys.deviceDirectory().probe(line), nullptr);
    sys.checkInvariants();
}

TEST(FaultPoison, TransientPoisonIsScrubbedByOneRetry)
{
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults(13);
    cfg.fault.poisonRate = 1.0;
    cfg.fault.persistentPoisonFrac = 0.0;   // every hit scrubs clean
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    FaultInjector &faults = *sys.faultInjector();

    const AccessResult w =
        sys.access(0, 0, sharedRef(2, 4, MemOp::write), 0, 42);
    (void)w;
    EXPECT_GE(faults.poisonTransient.value(), 1u);
    EXPECT_EQ(faults.poisonPersistent.value(), 0u);
    EXPECT_EQ(faults.degradedAccesses.value(), 0u);

    // Scrubbed: the line cached normally and reads back the new value.
    const LineAddr line = homeLine(sys, 2, 4);
    EXPECT_EQ(sys.hierarchy(0).stateOf(line), HostState::M);
    const AccessResult r =
        sys.access(0, 0, sharedRef(2, 4, MemOp::read), 10'000);
    EXPECT_EQ(r.data, 42u);
    sys.checkInvariants();
}

/**
 * The poison memo as it was when every check was memoised: the first
 * check of a line takes the stateless draw, stores it (transient as
 * clean, since the retry scrubs it), and every later check returns the
 * stored state. The draw comes from a second injector with the same
 * seed, asked about each line at most once, so its own memo never
 * answers.
 */
class FullPoisonMemo
{
  public:
    FullPoisonMemo(const FaultConfig &cfg, std::uint64_t seed)
        : draw_(cfg, 4, seed)
    {
    }

    PoisonState
    check(LineAddr line)
    {
        if (const auto it = memo_.find(line); it != memo_.end())
            return it->second;
        const PoisonState s = draw_.poisonCheck(line);
        transient += s == PoisonState::transientPoison;
        persistent += s == PoisonState::persistentPoison;
        memo_[line] =
            s == PoisonState::transientPoison ? PoisonState::clean : s;
        return s;
    }

    bool
    persistentlyPoisoned(LineAddr line) const
    {
        const auto it = memo_.find(line);
        return it != memo_.end() &&
               it->second == PoisonState::persistentPoison;
    }

    void
    poisonForever(LineAddr line)
    {
        if (persistentlyPoisoned(line))
            return;
        memo_[line] = PoisonState::persistentPoison;
        ++persistent;
    }

    std::uint64_t transient = 0;
    std::uint64_t persistent = 0;

  private:
    FaultInjector draw_;
    std::map<LineAddr, PoisonState> memo_;
};

TEST(FaultPoison, MemoOfNonCleanDrawsMatchesAFullMemo)
{
    struct Case
    {
        double rate;
        double persistentFrac;
        std::uint64_t lines;   ///< line universe (small: lines recur)
    };
    const Case cases[] = {
        {0.0, 0.5, 256},     // only lines forced by poisonLineForever
        {1e-4, 0.5, 1u << 16},
        {0.3, 0.5, 512},
        {0.9, 0.2, 64},      // mostly transient lines, checked again
        {1.0, 0.0, 32},      // every line transient once, then clean
    };
    Rng rng(29);
    for (const Case &c : cases) {
        FaultConfig f = quietFaults(7);
        f.poisonRate = c.rate;
        f.persistentPoisonFrac = c.persistentFrac;
        const std::uint64_t seed = rng.next();
        FaultInjector inj(f, 4, seed);
        FullPoisonMemo ref(f, seed);
        for (int op = 0; op < 20'000; ++op) {
            const LineAddr line = rng.below(c.lines);
            const std::uint64_t kind = rng.below(10);
            if (kind < 7) {
                ASSERT_EQ(inj.poisonCheck(line), ref.check(line))
                    << "rate " << c.rate << " op " << op;
            } else if (kind < 8) {
                inj.poisonLineForever(line);
                ref.poisonForever(line);
            } else {
                ASSERT_EQ(inj.linePersistentlyPoisoned(line),
                          ref.persistentlyPoisoned(line))
                    << "rate " << c.rate << " op " << op;
            }
        }
        EXPECT_EQ(inj.poisonTransient.value(), ref.transient) << c.rate;
        EXPECT_EQ(inj.poisonPersistent.value(), ref.persistent) << c.rate;
    }
}

TEST(FaultMigration, PromotionAbortRollsBackCleanly)
{
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults(17);
    cfg.fault.migrationAbortRate = 1.0;   // every migration fault-aborts
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    PipmState &pipm = *sys.pipmState();
    FaultInjector &faults = *sys.faultInjector();

    Cycles now = 0;
    for (unsigned i = 0; i < 4 * cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i % linesPerPage, MemOp::write),
                   now, i);
        now += 10'000;
    }
    // Every firing was rolled back: no local entry, no migrated host, no
    // leaked frames — and the rollback left the vote free to re-fire.
    const PageFrame cxl_page =
        pageOf(pageBase(sys.space().sharedFrame(2)));
    EXPECT_EQ(pipm.migratedHostOf(cxl_page), invalidHost);
    EXPECT_FALSE(pipm.hasLocalEntry(0, cxl_page));
    EXPECT_GE(faults.promotionAborts.value(), 2u);
    EXPECT_EQ(pipm.promotions.value(), faults.promotionAborts.value());
    EXPECT_EQ(pipm.migratedLinesOn(0), 0u);
    sys.checkInvariants();
}

TEST(FaultMigration, LineMigrationAbortDrawsAreCounted)
{
    FaultConfig f = quietFaults(19);
    f.migrationAbortRate = 1.0;
    FaultInjector faults(f, 2, 19);
    EXPECT_TRUE(faults.abortLineMigration());
    EXPECT_TRUE(faults.abortLineMigration());
    EXPECT_EQ(faults.lineAborts.value(), 2u);

    FaultInjector quiet(quietFaults(19), 2, 19);
    EXPECT_FALSE(quiet.abortLineMigration());
    EXPECT_FALSE(quiet.abortPromotion());
    EXPECT_EQ(quiet.lineAborts.value(), 0u);
}

TEST(FaultBackoff, HighErrorRateDefersMigrations)
{
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults(23);
    cfg.fault.linkErrorRate = 1.0;    // hopeless link
    cfg.fault.backoffWindow = 4;
    cfg.fault.backoffBaseNs = 1e6;    // back off for a long time
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    PipmState &pipm = *sys.pipmState();
    FaultInjector &faults = *sys.faultInjector();

    Cycles now = 0;
    for (unsigned i = 0; i < 4 * cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i % linesPerPage, MemOp::write),
                   now, i);
        now += 100;
    }
    const PageFrame cxl_page =
        pageOf(pageBase(sys.space().sharedFrame(2)));
    EXPECT_GT(faults.backoffEntries.value(), 0u);
    EXPECT_GT(faults.migrationsDeferred.value(), 0u);
    EXPECT_TRUE(faults.migrationsSuspended(now));
    EXPECT_EQ(pipm.migratedHostOf(cxl_page), invalidHost);
    EXPECT_EQ(pipm.promotions.value(), 0u);
    sys.checkInvariants();
}

TEST(FaultSchedules, SameInstantEventsHaveAPinnedTotalOrder)
{
    // Regression for the schedule sort: events falling on the same cycle
    // are processed in a pinned total order — rejoins before crashes
    // (alive counts stay conservative), then by host id — so replay is
    // independent of the generator's emission order.
    auto ev = [](Cycles at, HostId host, bool rejoin) {
        CrashEvent e;
        e.at = at;
        e.host = host;
        e.rejoin = rejoin;
        return e;
    };
    std::vector<CrashEvent> events = {
        ev(100, 2, false), ev(100, 0, true), ev(100, 1, false),
        ev(100, 1, true), ev(50, 3, false),
    };
    std::sort(events.begin(), events.end(), FaultInjector::eventBefore);

    const std::vector<CrashEvent> expect = {
        ev(50, 3, false), ev(100, 0, true), ev(100, 1, true),
        ev(100, 1, false), ev(100, 2, false),
    };
    ASSERT_EQ(events.size(), expect.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].at, expect[i].at) << i;
        EXPECT_EQ(events[i].host, expect[i].host) << i;
        EXPECT_EQ(events[i].rejoin, expect[i].rejoin) << i;
    }

    // Strict weak ordering: irreflexive and asymmetric on equal keys.
    EXPECT_FALSE(FaultInjector::eventBefore(events[0], events[0]));
    EXPECT_FALSE(FaultInjector::eventBefore(events[1], events[1]));

    // Generated schedules come out sorted under exactly this order.
    const FaultConfig f = paperCrashFaultConfig(11, 50'000.0, 20'000.0);
    FaultInjector inj(f, 4, 99);
    const auto &sched = inj.crashSchedule();
    ASSERT_FALSE(sched.empty());
    for (std::size_t i = 1; i < sched.size(); ++i)
        EXPECT_FALSE(FaultInjector::eventBefore(sched[i], sched[i - 1]));
}

TEST(FaultCombined, PoisonSuspectedHostAndRetrainWindowCoexist)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.fault = quietFaults(31);
    cfg.fault.poisonRate = 1.0;
    cfg.fault.persistentPoisonFrac = 1.0;   // every line degraded
    cfg.fault.retrainIntervalNs = 20'000.0;
    cfg.fault.retrainWindowNs = 2'000.0;
    cfg.fault.leaseNs = 20'000.0;
    cfg.fault.heartbeatIntervalNs = 4'000.0;
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    FaultInjector &faults = *sys.faultInjector();
    ASSERT_TRUE(sys.detectionEnabled());

    // Both hosts touch poisoned lines across several retrain intervals.
    Cycles now = 0;
    for (unsigned i = 0; i < 16; ++i) {
        sys.access(0, 0, sharedRef(1, i % linesPerPage, MemOp::write),
                   now, i);
        now += nsToCycles(5'000.0);
        sys.access(1, 0, sharedRef(1, i % linesPerPage, MemOp::read),
                   now);
        now += nsToCycles(5'000.0);
    }
    EXPECT_GE(faults.poisonPersistent.value(), 1u);
    EXPECT_GT(faults.degradedAccesses.value(), 0u);
    // Whether a demand message landed inside one of the short retrain
    // windows depends on the drawn phases; a dense probe pins down that
    // the windows were really scheduled alongside the other classes.
    const Cycles interval = nsToCycles(cfg.fault.retrainIntervalNs);
    for (Cycles t = 0; t < 3 * interval; t += 7)
        (void)faults.retrainDelay(0, t);
    EXPECT_GE(faults.retrainEvents.value(), 1u);
    sys.checkInvariants();

    // Fence host 1 mid-traffic (false suspicion on an alive host): all
    // three fault classes are now live at once; invariants still hold.
    sys.suspectHost(1, now);
    EXPECT_EQ(faults.falseSuspicions.value(), 1u);
    EXPECT_FALSE(sys.hostAlive(1));
    sys.checkInvariants();

    // The survivor keeps accessing through the degraded path while the
    // zombie is fenced, then the zombie readmits and participates.
    const AccessResult r0 = sys.access(
        0, 0, sharedRef(1, 0, MemOp::read), now + 1'000);
    EXPECT_EQ(r0.data, 0u);   // host 0's first write of value 0
    sys.tick(sys.hostDownUntil(1));
    EXPECT_TRUE(sys.hostAlive(1));
    EXPECT_EQ(faults.fencedRequests.value(), 1u);
    const AccessResult r1 = sys.access(
        1, 0, sharedRef(1, 0, MemOp::read), now + 200'000);
    EXPECT_EQ(r1.data, 0u);
    sys.checkInvariants();
}

TEST(FaultSchedules, RandomisedCheckingFindsNoViolations)
{
    SystemConfig cfg = testConfig();
    cfg.fault = paperFaultConfig();
    const FaultCheckResult pipm_res =
        checkFaultSchedules(cfg, Scheme::pipmFull, 2, 5'000, 2);
    EXPECT_TRUE(pipm_res.ok) << pipm_res.violation;
    EXPECT_EQ(pipm_res.accesses, 10'000u);
    EXPECT_GT(pipm_res.totals.linkCrcErrors, 0u);

    const FaultCheckResult hw_res =
        checkFaultSchedules(cfg, Scheme::hwStatic, 1, 5'000, 3);
    EXPECT_TRUE(hw_res.ok) << hw_res.violation;
}

TEST(FaultSchedules, CheckerRejectsAFaultFreeConfig)
{
    // The schedule is cfg.fault; checking a config without one would
    // exercise no failure machinery and report it SAFE.
    ThrowOnErrorScope guard;
    EXPECT_THROW(checkFaultSchedules(testConfig(), Scheme::pipmFull, 1, 10),
                 SimError);
}

TEST(FaultSchedules, PaperDefaultsProduceAllFaultClasses)
{
    SystemConfig cfg = testConfig();
    cfg.fault = paperFaultConfig(29);
    cfg.fault.retrainIntervalNs = 20'000.0;   // shrink to test scale
    cfg.fault.migrationAbortRate = 0.2;

    auto wl = smallWorkload();
    const RunResult r = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_GT(r.linkCrcErrors, 0u);
    EXPECT_GE(r.linkRetrainEvents, 1u);
    EXPECT_GE(r.migrationAborts, 1u);
}

} // namespace
} // namespace pipm
