/**
 * @file
 * Tests for the experiment runner: determinism, warmup semantics, stat
 * plausibility and cross-scheme relationships on a small workload.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workloads/catalog.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

TEST(Runner, SameSeedIsBitForBitDeterministic)
{
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    const RunResult a = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    const RunResult b = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
    EXPECT_EQ(a.pipmLinesIn, b.pipmLinesIn);
}

TEST(Runner, DifferentSeedsDiffer)
{
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    RunConfig run = shortRun();
    const RunResult a = runExperiment(cfg, Scheme::native, *wl, run);
    run.seed = 1234;
    const RunResult b = runExperiment(cfg, Scheme::native, *wl, run);
    EXPECT_NE(a.execCycles, b.execCycles);
}

TEST(Runner, StatsArePlausible)
{
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    const RunResult r = runExperiment(cfg, Scheme::pipmFull, *wl,
                                      shortRun());
    EXPECT_GT(r.execCycles, 0u);
    EXPECT_GT(r.instructions, 8'000u * 4);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LT(r.ipc, 6.0);
    EXPECT_GE(r.sharedLlcMisses, r.localServedMisses);
    EXPECT_GE(r.localHitRate(), 0.0);
    EXPECT_LE(r.localHitRate(), 1.0);
    EXPECT_GE(r.pageFootprintFrac, 0.0);
    EXPECT_GE(r.pageFootprintFrac, r.lineFootprintFrac);
}

TEST(Runner, LocalOnlyOutperformsNative)
{
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    const RunResult native = runExperiment(cfg, Scheme::native, *wl,
                                           shortRun());
    const RunResult ideal = runExperiment(cfg, Scheme::localOnly, *wl,
                                          shortRun());
    EXPECT_LT(ideal.execCycles, native.execCycles);
    EXPECT_EQ(ideal.interHostAccesses, 0u);
}

TEST(Runner, PipmBeatsNativeOnAffineWorkload)
{
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload(0.95, 0.6);
    RunConfig run = shortRun();
    run.measureRefsPerCore = 20'000;
    const RunResult native = runExperiment(cfg, Scheme::native, *wl, run);
    const RunResult pipm = runExperiment(cfg, Scheme::pipmFull, *wl, run);
    EXPECT_LT(pipm.execCycles, native.execCycles);
    EXPECT_GT(pipm.localHitRate(), native.localHitRate());
    EXPECT_GT(pipm.pipmLinesIn, 0u);
}

TEST(Runner, OsSchemeMigratesAndTracksHarm)
{
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    RunConfig run = shortRun();
    run.measureRefsPerCore = 20'000;
    const RunResult r = runExperiment(cfg, Scheme::memtis, *wl, run);
    EXPECT_GT(r.osMigrations, 0u);
    EXPECT_GT(r.totalTrackedMigrations, 0u);
    EXPECT_LE(r.harmfulMigrations, r.totalTrackedMigrations);
    EXPECT_GT(r.mgmtStallCycles, 0u);
    EXPECT_GT(r.migrationTransferBytes, 0u);
}

TEST(Runner, WarmupIsExcludedFromMeasurement)
{
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    RunConfig with_warmup = shortRun();
    RunConfig no_warmup = shortRun();
    no_warmup.warmupRefsPerCore = 0;
    const RunResult a = runExperiment(cfg, Scheme::native, *wl,
                                      with_warmup);
    const RunResult b = runExperiment(cfg, Scheme::native, *wl,
                                      no_warmup);
    // Cold caches make the unwarmed run slower per reference.
    const double a_cpr = static_cast<double>(a.execCycles) / 8'000;
    const double b_cpr = static_cast<double>(b.execCycles) / 8'000;
    EXPECT_LT(a_cpr, b_cpr);
}

} // namespace
} // namespace pipm
