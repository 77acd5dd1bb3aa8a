/**
 * @file
 * Focused protocol-path tests for MultiHostSystem: device directory
 * precision under eviction notifications and capacity recalls, the
 * S->M upgrade path, owner forwarding, and remapping-cache interactions
 * with promotions and revocations.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

TEST(CoherencePaths, ExclusiveReadGrantThenForwardOnSecondReader)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::native, wl, 3);

    sys.access(0, 0, sharedRef(1, 0, MemOp::read), 0);
    const LineAddr line = homeLine(sys, 1, 0);
    // Exclusive grant: host 0 caches in M, directory M.
    EXPECT_EQ(sys.hierarchy(0).stateOf(line), HostState::M);
    const DirEntry *entry = sys.deviceDirectory().probe(line);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->state, DevState::M);
    EXPECT_EQ(entry->owner(2), 0);

    // Second reader: forward + downgrade to S at both hosts.
    const std::uint64_t before = sys.interHostAccesses.value();
    sys.access(1, 0, sharedRef(1, 0, MemOp::read), 1000);
    EXPECT_EQ(sys.interHostAccesses.value(), before + 1);
    EXPECT_EQ(sys.hierarchy(0).stateOf(line), HostState::S);
    EXPECT_EQ(sys.hierarchy(1).stateOf(line), HostState::S);
    entry = sys.deviceDirectory().probe(line);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->state, DevState::S);
    EXPECT_TRUE(entry->has(0));
    EXPECT_TRUE(entry->has(1));
    sys.checkInvariants();
}

TEST(CoherencePaths, UpgradeInvalidatesOtherSharers)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::native, wl, 3);

    sys.access(0, 0, sharedRef(1, 0, MemOp::read), 0);
    sys.access(1, 0, sharedRef(1, 0, MemOp::read), 1000);
    const LineAddr line = homeLine(sys, 1, 0);
    ASSERT_EQ(sys.hierarchy(0).stateOf(line), HostState::S);

    // Host 0 writes its cached S copy: upgrade path.
    const std::uint64_t upgrades = sys.upgradeMisses.value();
    sys.access(0, 0, sharedRef(1, 0, MemOp::write), 2000, 0x42);
    EXPECT_EQ(sys.upgradeMisses.value(), upgrades + 1);
    EXPECT_EQ(sys.hierarchy(0).stateOf(line), HostState::M);
    EXPECT_EQ(sys.hierarchy(1).stateOf(line), HostState::I);
    const DirEntry *entry = sys.deviceDirectory().probe(line);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->state, DevState::M);
    EXPECT_EQ(entry->owner(2), 0);
    sys.checkInvariants();
}

TEST(CoherencePaths, EvictionNotificationsKeepDirectoryPrecise)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::native, wl, 3);

    // Touch many lines; the tiny LLC evicts most of them. Afterwards,
    // every directory entry must describe a line actually cached.
    Cycles now = 0;
    for (std::uint64_t p = 0; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2) {
            sys.access(0, 0, sharedRef(p, l, MemOp::read), now);
            now += 100;
        }
    }
    sys.checkInvariants();
    // Directory occupancy should track the LLC contents, not the whole
    // touched footprint (64 * 32 = 2048 lines touched).
    std::uint64_t dir_entries = 0;
    for (std::uint64_t p = 0; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; ++l) {
            if (sys.deviceDirectory().probe(homeLine(sys, p, l)))
                ++dir_entries;
        }
    }
    std::uint64_t cached = 0;
    for (std::uint64_t p = 0; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; ++l) {
            if (sys.hierarchy(0).stateOf(homeLine(sys, p, l)) !=
                HostState::I) {
                ++cached;
            }
        }
    }
    EXPECT_EQ(dir_entries, cached);
}

TEST(CoherencePaths, DirectoryRecallInvalidatesSharers)
{
    SystemConfig cfg = testConfig();
    cfg.trackValues = true;   // checks a recalled line's data below
    // Shrink the directory so recalls fire while lines are still cached.
    cfg.deviceDirectory.sets = 2;
    cfg.deviceDirectory.ways = 2;
    cfg.deviceDirectory.slices = 2;
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::native, wl, 3);

    Cycles now = 0;
    for (std::uint64_t p = 0; p < 16; ++p) {
        for (unsigned l = 0; l < 8; ++l) {
            sys.access(0, 0, sharedRef(p, l, MemOp::write), now,
                       p * 100 + l);
            now += 100;
        }
    }
    EXPECT_GT(sys.deviceDirectory().recalls.value(), 0u);
    sys.checkInvariants();
    // Dirty recalled data must still be readable with the right value.
    const AccessResult res =
        sys.access(1, 0, sharedRef(0, 0, MemOp::read), now);
    EXPECT_EQ(res.data, 0u);
}

TEST(CoherencePaths, PipmRevocationFlushesMeLines)
{
    SystemConfig cfg = testConfig();
    cfg.trackValues = true;   // checks the flushed line's data below
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 3);
    PipmState &pipm = *sys.pipmState();

    // Promote page 2 to host 0 and migrate some lines.
    Cycles now = 0;
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i, MemOp::write), now, 0x900 + i);
        now += 5'000;
    }
    for (std::uint64_t p = 20; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2)
            sys.access(0, 0, sharedRef(p, l, MemOp::read), now);
    }
    const PageFrame cxl_page =
        pageOf(pageBase(sys.space().sharedFrame(2)));
    ASSERT_GT(pipm.migratedLinesOn(0), 0u);

    // Re-load one migrated line into ME.
    unsigned me_line = linesPerPage;
    for (unsigned l = 0; l < linesPerPage; ++l) {
        if (pipm.lineMigrated(0, cxl_page, l)) {
            me_line = l;
            break;
        }
    }
    ASSERT_LT(me_line, linesPerPage);
    sys.access(0, 0, sharedRef(2, me_line, MemOp::read), now);
    ASSERT_EQ(sys.hierarchy(0).stateOf(homeLine(sys, 2, me_line)),
              HostState::ME);

    // Revoke deterministically through the software interface (the
    // same performRevocation path the drained local counter takes).
    sys.setPageMigrationAllowed(2, false);
    EXPECT_FALSE(pipm.hasLocalEntry(0, cxl_page));
    // Revocation must have flushed the ME line too, and cleared every
    // in-memory bit of the page (other pages may remain migrated).
    EXPECT_EQ(sys.hierarchy(0).stateOf(homeLine(sys, 2, me_line)),
              HostState::I);
    for (unsigned l = 0; l < linesPerPage; ++l)
        EXPECT_FALSE(pipm.lineMigrated(0, cxl_page, l));
    // And its data must still be readable from CXL.
    const AccessResult res =
        sys.access(1, 0, sharedRef(2, me_line, MemOp::read), now + 5'000);
    EXPECT_EQ(res.data, 0x900u + me_line);
    sys.checkInvariants();
}

TEST(CoherencePaths, RemapCachesTrackPromotionAndRevocation)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 3);

    Cycles now = 0;
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i, MemOp::write), now, i);
        now += 5'000;
    }
    ASSERT_NE(sys.pipmState()->migratedHostOf(
                  pageOf(pageBase(sys.space().sharedFrame(2)))),
              invalidHost);
    // Subsequent misses walk/hit the local remap cache without panics
    // and observe the entry.
    const auto walks_before = sys.localRemapCache(0)->missCount.value();
    for (unsigned i = 0; i < 16; ++i)
        sys.access(0, 0, sharedRef(2, 40 + (i % 8), MemOp::read),
                   now += 1'000);
    EXPECT_GE(sys.localRemapCache(0)->hits.value() +
                  sys.localRemapCache(0)->missCount.value(),
              walks_before + 1);
}

/** Random multi-scheme smoke over a larger page set with invariants. */
class CoherenceStress : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(CoherenceStress, WidePageSetInvariantSweep)
{
    if (GetParam() == Scheme::localOnly)
        GTEST_SKIP();
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(128 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, GetParam(), wl, 11);
    Rng rng(13);
    Cycles now = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto h = static_cast<HostId>(rng.below(cfg.numHosts));
        now += rng.below(80);
        sys.tick(now);
        sys.access(h, 0,
                   sharedRef(rng.below(128),
                             static_cast<unsigned>(rng.below(64)),
                             rng.chance(0.3) ? MemOp::write
                                             : MemOp::read),
                   now, i);
    }
    sys.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CoherenceStress,
    ::testing::Values(Scheme::native, Scheme::nomad, Scheme::memtis,
                      Scheme::hemem, Scheme::osSkew, Scheme::hwStatic,
                      Scheme::pipmFull, Scheme::pipmNaive),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string name(toString(info.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace pipm
