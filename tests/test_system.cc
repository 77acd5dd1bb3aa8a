/**
 * @file
 * Integration tests for MultiHostSystem: functional data correctness
 * across every access path (local, CXL coherent, GIM inter-host, PIPM
 * migrated), coherence invariants under random stress, and the
 * scheme-specific machinery (OS epochs, PIPM promotion/revocation).
 */

#include <gtest/gtest.h>

#include <map>

#include "cache/set_assoc.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "workloads/catalog.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

/** testConfig() with the value plane on: these tests check data. */
SystemConfig
valueConfig()
{
    SystemConfig cfg = testConfig();
    cfg.trackValues = true;
    return cfg;
}

MemRef
privateRef(std::uint64_t page, unsigned line, MemOp op)
{
    MemRef r = sharedRef(page, line, op);
    r.shared = false;
    return r;
}

class SystemTest : public ::testing::TestWithParam<Scheme>
{
  protected:
    SystemTest()
        : cfg_(valueConfig()),
          workload_(64 * pageBytes, 8 * pageBytes),
          system_(cfg_, GetParam(), workload_, 7)
    {
    }

    SystemConfig cfg_;
    FootprintWorkload workload_;
    MultiHostSystem system_;
};

TEST_P(SystemTest, ReadReturnsPristineValueInitially)
{
    if (GetParam() == Scheme::localOnly)
        GTEST_SKIP() << "local-only does not model shared data";
    const MemRef r = sharedRef(3, 5, MemOp::read);
    const AccessResult res = system_.access(0, 0, r, 0);
    const PhysAddr pa =
        pageBase(system_.space().sharedFrame(3)) + 5 * lineBytes;
    EXPECT_EQ(res.data, MemoryImage::pristine(lineOf(pa)));
    EXPECT_GT(res.latency, 0u);
}

TEST_P(SystemTest, WriteThenReadSameHost)
{
    system_.access(0, 0, sharedRef(1, 2, MemOp::write), 0, 0xabcd);
    const AccessResult res =
        system_.access(0, 0, sharedRef(1, 2, MemOp::read), 100);
    if (GetParam() != Scheme::localOnly) {
        EXPECT_EQ(res.data, 0xabcdu);
    }
}

TEST_P(SystemTest, WriteThenReadAcrossHosts)
{
    if (GetParam() == Scheme::localOnly)
        GTEST_SKIP() << "local-only does not model shared data";
    system_.access(0, 0, sharedRef(1, 2, MemOp::write), 0, 0x1111);
    const AccessResult res =
        system_.access(1, 0, sharedRef(1, 2, MemOp::read), 1000);
    EXPECT_EQ(res.data, 0x1111u);
    // And back the other way after an overwrite.
    system_.access(1, 0, sharedRef(1, 2, MemOp::write), 2000, 0x2222);
    const AccessResult res2 =
        system_.access(0, 0, sharedRef(1, 2, MemOp::read), 3000);
    EXPECT_EQ(res2.data, 0x2222u);
    system_.checkInvariants();
}

TEST_P(SystemTest, PrivateDataStaysLocalAndCorrect)
{
    system_.access(1, 0, privateRef(2, 9, MemOp::write), 0, 0x77);
    const AccessResult res =
        system_.access(1, 0, privateRef(2, 9, MemOp::read), 10);
    EXPECT_EQ(res.data, 0x77u);
    EXPECT_EQ(system_.interHostAccesses.value(), 0u);
}

TEST_P(SystemTest, CxlAccessIsSlowerThanPrivate)
{
    if (GetParam() == Scheme::localOnly)
        GTEST_SKIP();
    const Cycles shared_lat =
        system_.access(0, 0, sharedRef(40, 0, MemOp::read), 0).latency;
    const Cycles private_lat =
        system_.access(0, 0, privateRef(3, 0, MemOp::read), 0).latency;
    EXPECT_GT(shared_lat, private_lat + nsToCycles(50.0));
}

TEST_P(SystemTest, CacheHitsAreFast)
{
    system_.access(0, 0, sharedRef(5, 1, MemOp::read), 0);
    const AccessResult hit =
        system_.access(0, 0, sharedRef(5, 1, MemOp::read), 500);
    EXPECT_LE(hit.latency, cfg_.l1.roundTrip);
}

/**
 * Random stress: coherence and data-value correctness under a random mix
 * of reads/writes from all hosts, with periodic invariant checks. The
 * oracle is per-line "last written token (or pristine)". The test config
 * has a tiny LLC, so evictions, writebacks and (for PIPM) incremental
 * migrations all fire constantly.
 */
TEST_P(SystemTest, RandomStressPreservesCoherenceAndData)
{
    if (GetParam() == Scheme::localOnly)
        GTEST_SKIP() << "local-only intentionally breaks sharing";
    Rng rng(31 + static_cast<std::uint64_t>(GetParam()));
    std::map<std::pair<std::uint64_t, unsigned>, std::uint64_t> oracle;
    Cycles now = 0;
    std::uint64_t token = 1;

    for (int i = 0; i < 30000; ++i) {
        const auto h = static_cast<HostId>(rng.below(cfg_.numHosts));
        const std::uint64_t page = rng.below(16);   // concentrated
        const unsigned line = static_cast<unsigned>(rng.below(8));
        const bool write = rng.chance(0.4);
        now += rng.below(50);
        system_.tick(now);
        if (write) {
            system_.access(h, 0, sharedRef(page, line, MemOp::write),
                           now, token);
            oracle[{page, line}] = token;
            ++token;
        } else {
            const AccessResult res = system_.access(
                h, 0, sharedRef(page, line, MemOp::read), now);
            auto it = oracle.find({page, line});
            if (it != oracle.end()) {
                ASSERT_EQ(res.data, it->second)
                    << "read of page " << page << " line " << line
                    << " at host " << int(h) << " step " << i;
            }
        }
        if (i % 5000 == 4999)
            system_.checkInvariants();
    }
    system_.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SystemTest, ::testing::ValuesIn(allSchemes),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string name(toString(info.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(SystemPipm, PromotionAndIncrementalMigrationLifecycle)
{
    SystemConfig cfg = valueConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    PipmState &pipm = *sys.pipmState();

    // Host 0 hammers page 2 until the vote fires; each access uses a
    // different line so every access misses and reaches the device.
    Cycles now = 0;
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i % linesPerPage, MemOp::write),
                   now, i);
        now += 10'000;
    }
    EXPECT_EQ(pipm.migratedHostOf(pageOf(
                  pageBase(sys.space().sharedFrame(2)))),
              0);

    // Evicting the written (M-state) lines triggers case 1. Force
    // evictions by streaming unrelated pages.
    for (std::uint64_t p = 20; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2) {
            sys.access(0, 0, sharedRef(p, l, MemOp::read), now);
            now += 500;
        }
    }
    EXPECT_GT(pipm.linesIn.value(), 0u);

    // A local re-read of a migrated line is served locally (case 3) and
    // still returns the written data.
    const PageFrame frame = sys.space().sharedFrame(2);
    const PageFrame cxl_page = pageOf(pageBase(frame));
    for (unsigned l = 0; l < linesPerPage; ++l) {
        if (pipm.lineMigrated(0, cxl_page, l)) {
            const std::uint64_t before = sys.localServedMisses.value();
            const AccessResult res =
                sys.access(0, 0, sharedRef(2, l, MemOp::read), now);
            EXPECT_EQ(res.data, l % cfg.pipm.migrationThreshold);
            EXPECT_EQ(sys.localServedMisses.value(), before + 1);
            break;
        }
    }
    sys.checkInvariants();
}

TEST(SystemPipm, InterHostAccessMigratesLineBack)
{
    SystemConfig cfg = valueConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    PipmState &pipm = *sys.pipmState();

    Cycles now = 0;
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i, MemOp::write), now, 100 + i);
        now += 10'000;
    }
    for (std::uint64_t p = 20; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2)
            sys.access(0, 0, sharedRef(p, l, MemOp::read), now);
    }
    const PageFrame cxl_page =
        pageOf(pageBase(sys.space().sharedFrame(2)));
    ASSERT_GT(pipm.linesIn.value(), 0u);

    unsigned migrated_line = linesPerPage;
    for (unsigned l = 0; l < linesPerPage; ++l) {
        if (pipm.lineMigrated(0, cxl_page, l)) {
            migrated_line = l;
            break;
        }
    }
    ASSERT_LT(migrated_line, linesPerPage);

    // Host 1 reads the migrated line: cases 2/6 move it back to CXL and
    // the data is the token host 0 wrote.
    const AccessResult res = sys.access(
        1, 0, sharedRef(2, migrated_line, MemOp::read), now + 1000);
    EXPECT_EQ(res.data, 100u + migrated_line);
    EXPECT_FALSE(pipm.lineMigrated(0, cxl_page, migrated_line));
    EXPECT_GT(pipm.linesBack.value(), 0u);
    sys.checkInvariants();
}

TEST(SystemOs, EpochMigratesHotPageAndChargesStalls)
{
    SystemConfig cfg = valueConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::memtis, wl, 7);

    // Host 1 hammers page 4 across two epochs.
    Cycles now = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int i = 0; i < 200; ++i) {
            sys.access(1, 0,
                       sharedRef(4, static_cast<unsigned>(i) %
                                        linesPerPage,
                                 MemOp::read),
                       now);
            now += 300;
        }
        now += cfg.osEpochCycles();
        sys.tick(now);
    }
    EXPECT_GT(sys.osMigrations.value(), 0u);
    EXPECT_EQ(sys.gimHostOf(4), 1);
    EXPECT_GT(sys.mgmtStallCycles.value(), 0u);

    // Data written before the migration survives the page copy.
    MultiHostSystem sys2(cfg, Scheme::memtis, wl, 7);
    now = 0;
    sys2.access(1, 0, sharedRef(4, 3, MemOp::write), now, 0xbeef);
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int i = 0; i < 200; ++i) {
            sys2.access(1, 0,
                        sharedRef(4, static_cast<unsigned>(i) %
                                         linesPerPage,
                                  MemOp::read),
                        now);
            now += 300;
        }
        now += cfg.osEpochCycles();
        sys2.tick(now);
    }
    ASSERT_EQ(sys2.gimHostOf(4), 1);
    const AccessResult res =
        sys2.access(0, 0, sharedRef(4, 3, MemOp::read), now);
    EXPECT_EQ(res.data, 0xbeefu);
    // Host 0's access to the migrated page was a 4-hop GIM access.
    EXPECT_GT(sys2.interHostAccesses.value(), 0u);
}

TEST(SystemGim, RemoteWritesReachTheOwnerCopy)
{
    SystemConfig cfg = valueConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::nomad, wl, 7);

    // Manufacture a migrated page directly through the address space.
    ASSERT_TRUE(sys.space().migrateSharedToHost(9, 0));
    // (Bypasses the policy path; the system routes by current mapping.)
    sys.access(1, 0, sharedRef(9, 1, MemOp::write), 0, 0x5a5a);
    const AccessResult owner_read =
        sys.access(0, 0, sharedRef(9, 1, MemOp::read), 1000);
    EXPECT_EQ(owner_read.data, 0x5a5au);
    const AccessResult remote_read =
        sys.access(1, 0, sharedRef(9, 1, MemOp::read), 2000);
    EXPECT_EQ(remote_read.data, 0x5a5au);
    EXPECT_GE(sys.interHostAccesses.value(), 2u);
}

TEST(SystemHwStatic, OnlyStaticOwnerInstantiatesPages)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::hwStatic, wl, 7);
    PipmState &pipm = *sys.pipmState();

    // Page with an even CXL frame belongs to host 0, odd to host 1.
    Cycles now = 0;
    for (std::uint64_t page = 0; page < 8; ++page) {
        const PageFrame cxl_page =
            pageOf(pageBase(sys.space().sharedFrame(page)));
        const auto owner = static_cast<HostId>(cxl_page % cfg.numHosts);
        const auto other = static_cast<HostId>((owner + 1) % cfg.numHosts);
        // The non-owner cannot instantiate the mapping...
        for (int i = 0; i < 20; ++i) {
            sys.access(other, 0,
                       sharedRef(page, static_cast<unsigned>(i),
                                 MemOp::read),
                       now);
            now += 2'000;
        }
        EXPECT_FALSE(pipm.hasLocalEntry(other, cxl_page));
        // ...but the owner instantiates it on first device access.
        sys.access(owner, 0, sharedRef(page, 63, MemOp::read), now);
        now += 2'000;
        EXPECT_TRUE(pipm.hasLocalEntry(owner, cxl_page));
        EXPECT_EQ(pipm.migratedHostOf(cxl_page), owner);
    }
    sys.checkInvariants();
}

TEST(SystemPipm, PinnedPagesStayInCxlAndUnpinningRevokes)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, wl, 7);
    PipmState &pipm = *sys.pipmState();

    // §6 software interface: pin page 3 in CXL memory.
    sys.setPageMigrationAllowed(3, false);
    Cycles now = 0;
    for (unsigned i = 0; i < 4 * cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(3, i % linesPerPage, MemOp::write),
                   now, i);
        now += 5'000;
    }
    const PageFrame cxl_page =
        pageOf(pageBase(sys.space().sharedFrame(3)));
    EXPECT_EQ(pipm.migratedHostOf(cxl_page), invalidHost);

    // Disabling a currently migrated page revokes it on the spot.
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(4, i, MemOp::write), now, i);
        now += 5'000;
    }
    const PageFrame page4 =
        pageOf(pageBase(sys.space().sharedFrame(4)));
    ASSERT_EQ(pipm.migratedHostOf(page4), 0);
    sys.setPageMigrationAllowed(4, false);
    EXPECT_EQ(pipm.migratedHostOf(page4), invalidHost);
    EXPECT_FALSE(pipm.hasLocalEntry(0, page4));
    sys.checkInvariants();
}

TEST(SystemNaive, UnrepairableEntryOfMigratedLineServesHomeDegraded)
{
    // pipm-naive keeps directory entries for migrated lines, so metadata
    // corruption can hit one. When the entry is unrepairable the line is
    // poisoned onto the degraded path, which serves the CXL home: the
    // home must carry the latest value and the naive redirect must stop
    // taking the line.
    SystemConfig cfg = valueConfig();
    cfg.fault.enabled = true;
    cfg.fault.metaCorruptMeanIntervalNs = 1e15;   // guards on, no events
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmNaive, wl, 7);

    Cycles now = 0;
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i, MemOp::write), now, i);
        now += 5'000;
    }
    for (std::uint64_t p = 20; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2) {
            sys.access(0, 0, sharedRef(p, l, MemOp::read), now);
            now += 500;
        }
    }
    const PageFrame page = pageOf(pageBase(sys.space().sharedFrame(2)));
    unsigned li = linesPerPage;
    for (unsigned l = 0; l < linesPerPage && li == linesPerPage; ++l) {
        if (sys.pipmState()->lineMigrated(0, page, l))
            li = l;
    }
    ASSERT_LT(li, linesPerPage);

    // Host 1 writes the migrated line through the naive redirect and
    // holds it dirty in M; then its entry is corrupted beyond repair.
    sys.access(1, 0, sharedRef(2, li, MemOp::write), now, 99);
    const LineAddr line = homeLine(sys, 2, li);
    ASSERT_TRUE(sys.deviceDirectory().corruptEntry(line, 0xff, true));

    const AccessResult r =
        sys.access(0, 0, sharedRef(2, li, MemOp::read), now + 10'000);
    EXPECT_EQ(r.data, 99u);
    EXPECT_FALSE(sys.pipmState()->lineMigrated(0, page, li));
    EXPECT_EQ(sys.hierarchy(0).stateOf(line), HostState::I);
    EXPECT_EQ(sys.faultInjector()->degradedAccesses.value(), 1u);
    sys.checkInvariants();
}

TEST(SystemNaive, RecalledDirtyLineLandsInTheBitHostsFrame)
{
    // pipm-naive: host 0 owns a partially migrated page, and host 1
    // takes one of its migrated lines dirty in M through the naive
    // redirect. When a directory-set conflict recalls host 1's entry,
    // the writeback must land where the still-set bit sends reads —
    // host 0's local frame — exactly as an LLC eviction's does.
    SystemConfig cfg = valueConfig();
    cfg.numHosts = 4;
    constexpr std::uint64_t pages = 2048;
    FootprintWorkload wl(pages * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmNaive, wl, 7);

    Cycles now = 0;
    for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, sharedRef(2, i, MemOp::write), now, i);
        now += 5'000;
    }
    for (std::uint64_t p = 20; p < 64; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 2) {
            sys.access(0, 0, sharedRef(p, l, MemOp::read), now);
            now += 500;
        }
    }
    const PageFrame page = pageOf(pageBase(sys.space().sharedFrame(2)));
    unsigned li = linesPerPage;
    for (unsigned l = 0; l < linesPerPage && li == linesPerPage; ++l) {
        if (sys.pipmState()->lineMigrated(0, page, l))
            li = l;
    }
    ASSERT_LT(li, linesPerPage);
    sys.access(1, 0, sharedRef(2, li, MemOp::write), now, 99);
    const LineAddr line = homeLine(sys, 2, li);
    ASSERT_NE(sys.deviceDirectory().probe(line), nullptr);

    // Fill the line's directory set from hosts 2 and 3. A one-way
    // SetAssoc of the directory's set count tells which lines share the
    // set: inserting one evicts `line`.
    SetAssoc<char> set_of(
        cfg.deviceDirectory.sets * cfg.deviceDirectory.slices, 1);
    set_of.insert(line, 0);
    unsigned reads = 0;
    for (std::uint64_t p = 64;
         p < pages && sys.deviceDirectory().probe(line); ++p) {
        for (unsigned l = 0; l < linesPerPage; ++l) {
            const LineAddr other = homeLine(sys, p, l);
            const auto victim = set_of.insert(other, 0);
            set_of.invalidate(other);
            if (!victim)
                continue;
            set_of.insert(line, 0);
            now += 500;
            // At most one LLC set's worth per host, so no host evicts
            // (and releases) its own entries before the set is full.
            sys.access(static_cast<HostId>(2 + reads++ % 2), 0,
                       sharedRef(p, l, MemOp::read), now);
        }
    }
    ASSERT_EQ(sys.deviceDirectory().probe(line), nullptr);
    EXPECT_EQ(sys.hierarchy(1).stateOf(line), HostState::I);
    EXPECT_TRUE(sys.pipmState()->lineMigrated(0, page, li));

    EXPECT_EQ(sys.access(0, 0, sharedRef(2, li, MemOp::read), now + 10'000)
                  .data,
              99u);
    sys.checkInvariants();
}

TEST(SystemNaive, NaiveCoherencePaysDeviceRoundTripsOnLocalHits)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem pipm_sys(cfg, Scheme::pipmFull, wl, 7);
    MultiHostSystem naive_sys(cfg, Scheme::pipmNaive, wl, 7);

    // Drive both systems identically: promote page 2, migrate lines,
    // then re-read a migrated line and compare latencies.
    auto drive = [&cfg](MultiHostSystem &sys) -> Cycles {
        Cycles now = 0;
        for (unsigned i = 0; i < cfg.pipm.migrationThreshold; ++i) {
            sys.access(0, 0, sharedRef(2, i, MemOp::write), now, i);
            now += 5'000;
        }
        for (std::uint64_t p = 20; p < 64; ++p) {
            for (unsigned l = 0; l < linesPerPage; l += 2) {
                sys.access(0, 0, sharedRef(p, l, MemOp::read), now);
                now += 500;
            }
        }
        const PageFrame cxl_page =
            pageOf(pageBase(sys.space().sharedFrame(2)));
        for (unsigned l = 0; l < linesPerPage; ++l) {
            if (sys.pipmState()->lineMigrated(0, cxl_page, l)) {
                return sys.access(0, 0, sharedRef(2, l, MemOp::read),
                                  now + 100'000)
                    .latency;
            }
        }
        return 0;
    };
    const Cycles pipm_lat = drive(pipm_sys);
    const Cycles naive_lat = drive(naive_sys);
    ASSERT_GT(pipm_lat, 0u);
    ASSERT_GT(naive_lat, 0u);
    // Fig. 8: the naive design adds at least one link round trip.
    EXPECT_GT(naive_lat, pipm_lat + nsToCycles(80.0));
    pipm_sys.checkInvariants();
    naive_sys.checkInvariants();
}

TEST(SystemStats, LocalOnlyServesEverythingLocally)
{
    SystemConfig cfg = testConfig();
    FootprintWorkload wl(64 * pageBytes, 8 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::localOnly, wl, 7);
    Rng rng(5);
    Cycles now = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto h = static_cast<HostId>(rng.below(cfg.numHosts));
        sys.access(h, 0,
                   sharedRef(rng.below(64),
                             static_cast<unsigned>(rng.below(64)),
                             MemOp::read),
                   now);
        now += 100;
    }
    EXPECT_EQ(sys.interHostAccesses.value(), 0u);
    EXPECT_EQ(sys.cxlServedMisses.value(), 0u);
    EXPECT_EQ(sys.localServedMisses.value(), sys.sharedLlcMisses.value());
}

} // namespace
} // namespace pipm
