/**
 * @file
 * Tests for the optional TLB model: hit/miss/walk accounting, capacity,
 * shootdowns, and its integration with OS page migration (remaps
 * invalidate translations at every core).
 */

#include <gtest/gtest.h>

#include "os/tlb.hh"
#include "sim/system.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

TEST(Tlb, MissWalksThenHits)
{
    TlbConfig cfg;
    Tlb tlb(cfg);
    const Cycles first = tlb.translate(42);
    const Cycles second = tlb.translate(42);
    EXPECT_EQ(first, cfg.hitCycles + cfg.walkCycles);
    EXPECT_EQ(second, cfg.hitCycles);
    EXPECT_EQ(tlb.missCount.value(), 1u);
    EXPECT_EQ(tlb.hits.value(), 1u);
}

TEST(Tlb, CapacityEvictsOldTranslations)
{
    TlbConfig cfg;
    cfg.entries = 16;
    cfg.ways = 4;
    Tlb tlb(cfg);
    for (std::uint64_t p = 0; p < 64; ++p)
        tlb.translate(p);
    // A re-walk is needed for at least some early pages.
    const std::uint64_t misses = tlb.missCount.value();
    tlb.translate(0);
    EXPECT_GE(tlb.missCount.value(), misses);
    EXPECT_EQ(tlb.missCount.value() + tlb.hits.value(), 65u);
}

TEST(Tlb, ShootdownForcesRewalk)
{
    Tlb tlb(TlbConfig{});
    tlb.translate(7);
    tlb.shootdown(7);
    EXPECT_EQ(tlb.shootdowns.value(), 1u);
    tlb.translate(7);
    EXPECT_EQ(tlb.missCount.value(), 2u);
    // Shooting down an absent page is harmless and uncounted.
    tlb.shootdown(999);
    EXPECT_EQ(tlb.shootdowns.value(), 1u);
}

TEST(TlbSystem, TranslationChargesAppearWhenEnabled)
{
    SystemConfig cfg = testConfig();
    cfg.tlb.enabled = true;
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::native, wl, 3);
    ASSERT_NE(sys.tlb(0, 0), nullptr);

    const Cycles cold =
        sys.access(0, 0, sharedRef(1, 0, MemOp::read), 0).latency;
    // Same page, different line: TLB hit, L1 miss.
    const Cycles warm =
        sys.access(0, 0, sharedRef(1, 1, MemOp::read), 10'000).latency;
    EXPECT_GT(cold, warm);
    EXPECT_EQ(sys.tlb(0, 0)->missCount.value(), 1u);
}

TEST(TlbSystem, OsMigrationShootsDownAllCores)
{
    SystemConfig cfg = testConfig();
    cfg.tlb.enabled = true;
    cfg.coresPerHost = 2;
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::memtis, wl, 3);

    // Warm every core's translation of page 4, then drive epochs until
    // the page migrates.
    Cycles now = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int i = 0; i < 200; ++i) {
            const unsigned line = static_cast<unsigned>(i) % linesPerPage;
            sys.access(1, static_cast<CoreId>(i % 2),
                       sharedRef(4, line, MemOp::read), now);
            sys.access(0, static_cast<CoreId>(i % 2),
                       sharedRef(4, 0, MemOp::read), now);
            now += 300;
        }
        now += cfg.osEpochCycles();
        sys.tick(now);
    }
    ASSERT_NE(sys.gimHostOf(4), invalidHost);
    for (unsigned h = 0; h < cfg.numHosts; ++h) {
        for (unsigned c = 0; c < cfg.coresPerHost; ++c) {
            EXPECT_GT(sys.tlb(static_cast<HostId>(h),
                              static_cast<CoreId>(c))
                          ->shootdowns.value(),
                      0u)
                << "host " << h << " core " << c;
        }
    }
}

TEST(TlbSystem, SharedMissSampleExcludesTranslation)
{
    // A cold read of a shared page OS-migrated to the requesting host:
    // as on every other path, the shared and local miss-latency samples
    // hold the miss alone, not the TLB walk charged in front of it.
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    SystemConfig on_cfg = testConfig();
    on_cfg.tlb.enabled = true;
    MultiHostSystem off(testConfig(), Scheme::native, wl, 3);
    MultiHostSystem on(on_cfg, Scheme::native, wl, 3);
    ASSERT_TRUE(off.space().migrateSharedToHost(4, 0));
    ASSERT_TRUE(on.space().migrateSharedToHost(4, 0));

    const MemRef r = sharedRef(4, 0, MemOp::read);
    const Cycles miss = off.access(0, 0, r, 0).latency;
    const Cycles with_tlb = on.access(0, 0, r, 0).latency;
    ASSERT_GT(with_tlb, miss);
    EXPECT_EQ(on.avgSharedMissLatency.count(), 1u);
    EXPECT_EQ(on.avgSharedMissLatency.mean(), static_cast<double>(miss));
    EXPECT_EQ(on.avgLocalMissLatency.mean(), static_cast<double>(miss));
}

TEST(TlbSystem, DisabledByDefault)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::native, wl, 3);
    EXPECT_EQ(sys.tlb(0, 0), nullptr);
}

} // namespace
} // namespace pipm
