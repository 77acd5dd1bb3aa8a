/**
 * @file
 * Tests for the indexed min-heap core scheduler (DESIGN.md §9): model
 * equivalence against the reference linear scan (including exact
 * tie-breaking), re-key correctness, and whole-run bit-identity between
 * PIPM_SCHED=heap and PIPM_SCHED=scan under a combined crash +
 * suspicion + metadata-corruption fault schedule.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <vector>

#include "common/logging.hh"
#include "sim/runner.hh"
#include "sim/sched.hh"
#include "workloads/catalog.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

/** The historical scheduler: first slot with the strictly smallest
 *  clock wins, so equal clocks resolve to the lowest index. */
struct ScanModel
{
    std::vector<Cycles> clock;
    std::vector<bool> live;

    explicit ScanModel(std::size_t n) : clock(n, 0), live(n, true) {}

    std::uint32_t
    top() const
    {
        std::uint32_t best = ~0u;
        for (std::uint32_t i = 0; i < clock.size(); ++i) {
            if (!live[i])
                continue;
            if (best == ~0u || clock[i] < clock[best])
                best = i;
        }
        return best;
    }
};

TEST(Sched, InitialPickIsSlotZero)
{
    CoreScheduler s(8);
    EXPECT_EQ(s.size(), 8u);
    // All clocks equal: the scan picks slot 0.
    EXPECT_EQ(s.top(), 0u);
}

TEST(Sched, TiesResolveToLowestIndex)
{
    CoreScheduler s(5);
    s.update(0, 30);
    s.update(1, 10);
    s.update(2, 20);
    s.update(3, 10);
    s.update(4, 10);
    EXPECT_EQ(s.top(), 1u);   // 1, 3, 4 tie at 10
    s.remove(1);
    EXPECT_EQ(s.top(), 3u);
    s.remove(3);
    EXPECT_EQ(s.top(), 4u);
    s.update(4, 25);
    EXPECT_EQ(s.top(), 2u);
    EXPECT_EQ(s.clockOf(4), 25u);
}

TEST(Sched, RekeyBothDirections)
{
    CoreScheduler s(4);
    s.update(0, 100);
    s.update(1, 200);
    s.update(2, 300);
    s.update(3, 400);
    EXPECT_EQ(s.top(), 0u);
    s.update(0, 350);         // sift down past 1 and 2
    EXPECT_EQ(s.top(), 1u);
    s.update(3, 150);         // sift up past 2 and 0
    s.update(1, 500);
    EXPECT_EQ(s.top(), 3u);
}

TEST(Sched, RandomizedModelEquivalence)
{
    std::mt19937_64 rng(0xdecafbadu);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + rng() % 24;
        CoreScheduler heap(n);
        ScanModel scan(n);
        std::size_t alive = n;
        for (int step = 0; step < 400 && alive > 0; ++step) {
            const std::uint32_t pick = heap.top();
            ASSERT_EQ(pick, scan.top()) << "round " << round << " step "
                                        << step;
            // Mostly advance the picked slot (the runner's pattern, with
            // frequent exact ties from coarse clock quanta); sometimes
            // re-key an arbitrary live slot or retire the pick.
            const unsigned op = rng() % 10;
            if (op == 0) {
                heap.remove(pick);
                scan.live[pick] = false;
                --alive;
                continue;
            }
            std::uint32_t victim = pick;
            if (op == 1) {
                do {
                    victim = static_cast<std::uint32_t>(rng() % n);
                } while (!scan.live[victim]);
            }
            const Cycles key = scan.clock[victim] + (rng() % 4) * 10;
            heap.update(victim, key);
            scan.clock[victim] = key;
            ASSERT_EQ(heap.clockOf(victim), key);
        }
        ASSERT_EQ(heap.size(), alive);
        ASSERT_EQ(heap.empty(), alive == 0);
    }
}

// ---- Whole-run bit-identity -------------------------------------------

/** smallSystem() with every fault domain armed. */
SystemConfig
faultySystem()
{
    SystemConfig cfg = smallSystem();
    // Crash + suspicion + metadata corruption layered on the paper-
    // default lossy fabric: every subsystem the event horizon elides is
    // armed, so heap-vs-scan identity covers the full tick slow path.
    cfg.fault = paperSuspicionFaultConfig(7);
    addPaperMetaFaults(cfg.fault);
    cfg.validate();
    return cfg;
}

RunConfig
identityRun(const std::string &sched, const std::string &stats_path)
{
    RunConfig run;
    run.warmupRefsPerCore = 1'500;
    run.measureRefsPerCore = 6'000;
    run.footprintSampleEvery = 8'000;
    run.scheduler = sched;
    run.statsJsonPath = stats_path;
    run.obsIntervalAccesses = 4'000;
    run.obsTraceCapacity = 256;
    run.obsFromEnv = false;   // tests must not react to the caller's env
    return run;
}

TEST(Sched, HeapAndScanRunsAreBitIdentical)
{
    const SystemConfig cfg = faultySystem();
    auto wl = smallWorkload();
    const std::string ph = "test_sched_heap.json";
    const std::string ps = "test_sched_scan.json";

    const RunResult heap = runExperiment(cfg, Scheme::pipmFull, *wl,
                                         identityRun("heap", ph));
    const RunResult scan = runExperiment(cfg, Scheme::pipmFull, *wl,
                                         identityRun("scan", ps));

    EXPECT_EQ(heap.execCycles, scan.execCycles);
    EXPECT_EQ(heap.instructions, scan.instructions);
    EXPECT_EQ(heap.sharedAccesses, scan.sharedAccesses);
    EXPECT_EQ(heap.sharedLlcMisses, scan.sharedLlcMisses);
    EXPECT_EQ(heap.localServedMisses, scan.localServedMisses);
    EXPECT_EQ(heap.cxlServedMisses, scan.cxlServedMisses);
    EXPECT_EQ(heap.interHostAccesses, scan.interHostAccesses);
    EXPECT_EQ(heap.interHostStallCycles, scan.interHostStallCycles);
    EXPECT_EQ(heap.mgmtStallCycles, scan.mgmtStallCycles);
    EXPECT_EQ(heap.migrationTransferBytes, scan.migrationTransferBytes);
    EXPECT_EQ(heap.pipmPromotions, scan.pipmPromotions);
    EXPECT_EQ(heap.pipmRevocations, scan.pipmRevocations);
    EXPECT_EQ(heap.pipmLinesIn, scan.pipmLinesIn);
    EXPECT_EQ(heap.pipmLinesBack, scan.pipmLinesBack);
    EXPECT_EQ(heap.linkCrcErrors, scan.linkCrcErrors);
    EXPECT_EQ(heap.poisonEvents, scan.poisonEvents);
    EXPECT_EQ(heap.migrationAborts, scan.migrationAborts);
    EXPECT_EQ(heap.hostCrashes, scan.hostCrashes);
    EXPECT_EQ(heap.hostRejoins, scan.hostRejoins);
    EXPECT_EQ(heap.crashLinesReclaimed, scan.crashLinesReclaimed);
    EXPECT_EQ(heap.crashDirtyLinesLost, scan.crashDirtyLinesLost);
    EXPECT_EQ(heap.suspicions, scan.suspicions);
    EXPECT_EQ(heap.falseSuspicions, scan.falseSuspicions);
    EXPECT_EQ(heap.fencedRequests, scan.fencedRequests);
    EXPECT_EQ(heap.txnTimeouts, scan.txnTimeouts);
    EXPECT_EQ(heap.txnRetries, scan.txnRetries);
    EXPECT_EQ(heap.stallWindows, scan.stallWindows);
    EXPECT_EQ(heap.pageFootprintFrac, scan.pageFootprintFrac);
    EXPECT_EQ(heap.lineFootprintFrac, scan.lineFootprintFrac);

    // The telemetry export captures interval boundaries, event traces
    // and every registered counter: byte equality means the runs were
    // indistinguishable, not merely end-state-equal.
    const std::string heap_json = slurp(ph);
    const std::string scan_json = slurp(ps);
    EXPECT_FALSE(heap_json.empty());
    EXPECT_EQ(heap_json, scan_json);

    std::remove(ph.c_str());
    std::remove(ps.c_str());
}

TEST(Sched, UnknownSchedulerNamePanics)
{
    ThrowOnErrorScope guard;
    const SystemConfig cfg = faultySystem();
    auto wl = smallWorkload();
    const RunConfig run = identityRun("fifo", "");
    EXPECT_THROW(runExperiment(cfg, Scheme::native, *wl, run), SimError);
}

} // namespace
} // namespace pipm
