/**
 * @file
 * Unit tests for the per-host cache hierarchy (inclusive L1 + LLC with
 * host-level coherence states).
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "cache/hierarchy.hh"
#include "common/logging.hh"

namespace pipm
{
namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : cfg_(testConfig()), hier_(cfg_, 1) {}

    SystemConfig cfg_;
    CacheHierarchy hier_;
};

TEST_F(HierarchyTest, MissThenFillThenL1Hit)
{
    EXPECT_EQ(hier_.lookup(0, 100).level, HitLevel::miss);
    hier_.fill(0, 100, HostState::S, false, 42);
    const auto r = hier_.lookup(0, 100);
    EXPECT_EQ(r.level, HitLevel::l1);
    EXPECT_EQ(r.state, HostState::S);
    EXPECT_EQ(hier_.dataOf(100), 42u);
}

TEST_F(HierarchyTest, LlcHitAfterL1Eviction)
{
    hier_.fill(0, 100, HostState::M, false, 1);
    // Evict line 100 from the tiny L1 by filling conflicting lines; the
    // LLC keeps it (inclusive).
    for (LineAddr l = 1000; l < 1200; ++l)
        hier_.fill(0, l, HostState::M, false, 0);
    const auto r = hier_.lookup(0, 100);
    EXPECT_NE(r.level, HitLevel::miss);
}

TEST_F(HierarchyTest, RecordWriteMarksDirtyAndUpdatesData)
{
    hier_.fill(0, 7, HostState::M, false, 5);
    hier_.recordWrite(0, 7, 99);
    auto ev = hier_.invalidateLine(7);
    ASSERT_TRUE(ev);
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->data, 99u);
}

TEST_F(HierarchyTest, WriteToSharedStatePanics)
{
    ThrowOnErrorScope guard;
    hier_.fill(0, 7, HostState::S, false, 5);
    EXPECT_THROW(hier_.recordWrite(0, 7, 1), SimError);
}

TEST_F(HierarchyTest, SetStateTransitions)
{
    hier_.fill(0, 7, HostState::M, false, 5);
    hier_.setState(7, HostState::S);
    EXPECT_EQ(hier_.stateOf(7), HostState::S);
    EXPECT_EQ(hier_.stateOf(8), HostState::I);
}

TEST_F(HierarchyTest, InvalidateReturnsContent)
{
    hier_.fill(0, 7, HostState::ME, true, 123);
    auto ev = hier_.invalidateLine(7);
    ASSERT_TRUE(ev);
    EXPECT_EQ(ev->state, HostState::ME);
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->data, 123u);
    EXPECT_EQ(hier_.stateOf(7), HostState::I);
    EXPECT_FALSE(hier_.invalidateLine(7));
}

TEST_F(HierarchyTest, CapacityEvictionsSurface)
{
    bool evicted_any = false;
    // Overfill the LLC (64KB per core at scale = tiny in testConfig).
    for (LineAddr l = 0; l < 100000; ++l) {
        auto ev = hier_.fill(0, l, HostState::M, false, 0);
        if (ev) {
            evicted_any = true;
            EXPECT_LT(ev->line, 100000u);
        }
    }
    EXPECT_TRUE(evicted_any);
    EXPECT_GT(hier_.llcEvictions.value(), 0u);
}

TEST_F(HierarchyTest, MarkCleanClearsDirty)
{
    hier_.fill(0, 7, HostState::M, true, 5);
    hier_.markClean(7);
    auto ev = hier_.invalidateLine(7);
    ASSERT_TRUE(ev);
    EXPECT_FALSE(ev->dirty);
}

TEST_F(HierarchyTest, FlushAllReturnsEverythingAndEmpties)
{
    for (LineAddr l = 0; l < 20; ++l)
        hier_.fill(0, l, HostState::M, true, l);
    auto all = hier_.flushAll();
    EXPECT_EQ(all.size(), 20u);
    for (LineAddr l = 0; l < 20; ++l)
        EXPECT_EQ(hier_.stateOf(l), HostState::I);
}

TEST_F(HierarchyTest, StatsCountHitsAndMisses)
{
    hier_.lookup(0, 1);   // miss
    hier_.fill(0, 1, HostState::S, false, 0);
    hier_.lookup(0, 1);   // L1 hit
    EXPECT_EQ(hier_.misses.value(), 1u);
    EXPECT_EQ(hier_.l1Hits.value(), 1u);
}

class MultiCoreHierarchyTest : public ::testing::Test
{
  protected:
    MultiCoreHierarchyTest() : cfg_(makeCfg()), hier_(cfg_, 1) {}

    static SystemConfig
    makeCfg()
    {
        SystemConfig cfg = testConfig();
        cfg.coresPerHost = 2;
        return cfg;
    }

    SystemConfig cfg_;
    CacheHierarchy hier_;
};

TEST_F(MultiCoreHierarchyTest, WriteInvalidatesOtherCoresL1)
{
    hier_.fill(0, 5, HostState::M, false, 1);
    hier_.fill(1, 5, HostState::M, false, 1);
    EXPECT_EQ(hier_.lookup(1, 5).level, HitLevel::l1);
    hier_.recordWrite(0, 5, 2);
    // Core 1's L1 copy must be gone; the LLC still has the line.
    EXPECT_EQ(hier_.lookup(1, 5).level, HitLevel::llc);
    EXPECT_EQ(hier_.dataOf(5), 2u);
}

TEST_F(MultiCoreHierarchyTest, SharedLlcServesBothCores)
{
    hier_.fill(0, 5, HostState::S, false, 9);
    const auto r = hier_.lookup(1, 5);
    EXPECT_EQ(r.level, HitLevel::llc);
}

TEST_F(MultiCoreHierarchyTest, FusedAccessMatchesHistoricalSequence)
{
    // Two identical hierarchies: one driven through the historical
    // lookup/dataOf/fill/recordWrite sequence, one through the fused
    // cachedAccess/fillAccess pair. Hit levels, read data, the eviction
    // stream and every counter must agree step for step — the fused
    // primitives are pure scan fusion, not a semantic change.
    CacheHierarchy hist(cfg_, 1);
    CacheHierarchy fused(cfg_, 1);
    std::mt19937_64 rng(0xf00df00du);

    for (int step = 0; step < 60'000; ++step) {
        const auto core = static_cast<CoreId>(rng() % 2);
        // Small line space so hits, L1 back-invalidations and LLC
        // capacity evictions all occur frequently.
        const LineAddr line = rng() % 4096;
        const bool is_write = rng() % 4 == 0;
        const std::uint64_t wdata = rng();
        const std::uint64_t fill_data = rng();

        // Historical sequence (the pre-fusion localAccess shape).
        std::optional<CacheHierarchy::Eviction> hist_ev;
        HitLevel hist_level;
        std::uint64_t hist_read = 0;
        {
            const auto r = hist.lookup(core, line);
            hist_level = r.level;
            if (r.level == HitLevel::llc) {
                hist_ev = hist.fill(core, line, r.state, false,
                                    hist.dataOf(line));
            } else if (r.level == HitLevel::miss) {
                hist_ev = hist.fill(core, line, HostState::M, false,
                                    fill_data);
            }
            if (is_write)
                hist.recordWrite(core, line, wdata);
            else
                hist_read = r.level == HitLevel::miss ? fill_data
                                                      : hist.dataOf(line);
        }

        // Fused sequence.
        std::optional<CacheHierarchy::Eviction> fused_ev;
        const auto a = fused.cachedAccess(core, line, is_write, wdata);
        std::uint64_t fused_read = a.data;
        if (a.level == HitLevel::miss) {
            fused_ev = fused.fillAccess(core, line, HostState::M, false,
                                        fill_data, is_write, wdata);
            fused_read = fill_data;
        } else if (is_write) {
            ASSERT_TRUE(a.completed) << "M/ME fills must complete writes";
        }

        ASSERT_EQ(a.level, hist_level) << "step " << step;
        if (!is_write) {
            ASSERT_EQ(fused_read, hist_read) << "step " << step;
        }
        ASSERT_EQ(fused_ev.has_value(), hist_ev.has_value())
            << "step " << step;
        if (fused_ev) {
            ASSERT_EQ(fused_ev->line, hist_ev->line) << "step " << step;
            ASSERT_EQ(fused_ev->state, hist_ev->state);
            ASSERT_EQ(fused_ev->dirty, hist_ev->dirty);
            ASSERT_EQ(fused_ev->data, hist_ev->data);
        }
    }

    EXPECT_EQ(fused.l1Hits.value(), hist.l1Hits.value());
    EXPECT_EQ(fused.llcHits.value(), hist.llcHits.value());
    EXPECT_EQ(fused.misses.value(), hist.misses.value());
    EXPECT_EQ(fused.llcEvictions.value(), hist.llcEvictions.value());
}

} // namespace
} // namespace pipm
