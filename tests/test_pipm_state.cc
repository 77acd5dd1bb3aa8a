/**
 * @file
 * Unit and property tests for the PIPM remapping state: the majority-vote
 * policy (§4.2), promotion/revocation, line bitmaps and the HW-static
 * mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "os/address_space.hh"
#include "pipm/pipm_state.hh"

namespace pipm
{
namespace
{

class PipmStateTest : public ::testing::Test
{
  protected:
    PipmStateTest()
        : cfg_(testConfig()),
          space_(cfg_, 64 * pageBytes, 8 * pageBytes),
          state_(cfg_.pipm, cfg_.numHosts, PipmMode::vote, space_)
    {
    }

    /** Feed `n` device accesses from host h to page p. */
    VoteOutcome
    feed(PageFrame p, HostId h, unsigned n)
    {
        VoteOutcome out;
        for (unsigned i = 0; i < n; ++i) {
            const VoteOutcome o = state_.deviceAccess(p, h);
            if (o.promoted)
                out = o;
        }
        return out;
    }

    SystemConfig cfg_;
    AddressSpace space_;
    PipmState state_;
};

TEST_F(PipmStateTest, ThresholdAccessesPromote)
{
    const VoteOutcome out = feed(1, 0, cfg_.pipm.migrationThreshold);
    EXPECT_TRUE(out.promoted);
    EXPECT_EQ(out.promotedTo, 0);
    EXPECT_EQ(state_.migratedHostOf(1), 0);
    EXPECT_TRUE(state_.hasLocalEntry(0, 1));
    EXPECT_EQ(state_.promotions.value(), 1u);
}

TEST_F(PipmStateTest, BelowThresholdDoesNotPromote)
{
    feed(1, 0, cfg_.pipm.migrationThreshold - 1);
    EXPECT_EQ(state_.migratedHostOf(1), invalidHost);
}

TEST_F(PipmStateTest, BalancedTrafficNeverPromotes)
{
    // Alternating hosts keep the Boyer-Moore counter pinned near zero.
    for (unsigned i = 0; i < 200; ++i)
        state_.deviceAccess(7, static_cast<HostId>(i % 2));
    EXPECT_EQ(state_.migratedHostOf(7), invalidHost);
}

TEST_F(PipmStateTest, MajorityMustExceedAllOthersCombined)
{
    // Pattern: h0, h0, h1 repeated. Net drift for h0 is +1 per 3
    // accesses, so it eventually fires; strict alternation would not.
    for (unsigned i = 0; i < 3 * cfg_.pipm.migrationThreshold; ++i) {
        const HostId h = (i % 3 == 2) ? HostId(1) : HostId(0);
        state_.deviceAccess(9, h);
    }
    EXPECT_EQ(state_.migratedHostOf(9), 0);
}

TEST_F(PipmStateTest, BoyerMooreCandidateSwitch)
{
    // h0 builds 3 votes, h1 drains them and takes over.
    feed(4, 0, 3);
    feed(4, 1, 3);   // counter back to zero
    const VoteOutcome out = feed(4, 1, cfg_.pipm.migrationThreshold);
    EXPECT_TRUE(out.promoted);
    EXPECT_EQ(out.promotedTo, 1);
}

TEST_F(PipmStateTest, GlobalCounterSaturatesAtSixBits)
{
    feed(2, 0, 1000);
    EXPECT_LE(state_.globalEntry(2).counter, 63);
}

TEST_F(PipmStateTest, LineBitmapTracksMigration)
{
    feed(1, 0, cfg_.pipm.migrationThreshold);
    EXPECT_FALSE(state_.lineMigrated(0, 1, 5));
    state_.setLineMigrated(0, 1, 5);
    EXPECT_TRUE(state_.lineMigrated(0, 1, 5));
    EXPECT_EQ(state_.migratedLinesOn(0), 1u);
    const PhysAddr lpa = state_.localLineAddr(0, 1, 5);
    EXPECT_EQ(cfg_.homeHostOf(lpa), 0);
    EXPECT_EQ(lineInPage(lpa), 5u);
    state_.clearLineMigrated(0, 1, 5);
    EXPECT_FALSE(state_.lineMigrated(0, 1, 5));
    EXPECT_EQ(state_.linesBack.value(), 1u);
}

TEST_F(PipmStateTest, DoubleMigrateSameLinePanics)
{
    ThrowOnErrorScope guard;
    feed(1, 0, cfg_.pipm.migrationThreshold);
    state_.setLineMigrated(0, 1, 5);
    EXPECT_THROW(state_.setLineMigrated(0, 1, 5), SimError);
}

TEST_F(PipmStateTest, LocalCounterStartsAtThresholdAndRevokesAtZero)
{
    feed(1, 0, cfg_.pipm.migrationThreshold);
    state_.setLineMigrated(0, 1, 3);
    // Drain the 4-bit local counter with inter-host accesses.
    InterHostOutcome out;
    unsigned decrements = 0;
    do {
        out = state_.interHostAccess(0, 1);
        ++decrements;
        ASSERT_LT(decrements, 100u);
    } while (!out.revoked);
    EXPECT_EQ(decrements, cfg_.pipm.migrationThreshold);
    const std::uint64_t bitmap = state_.revoke(0, 1);
    EXPECT_EQ(bitmap, 1ull << 3);
    EXPECT_FALSE(state_.hasLocalEntry(0, 1));
    EXPECT_EQ(state_.migratedHostOf(1), invalidHost);
    EXPECT_EQ(state_.migratedLinesOn(0), 0u);
    EXPECT_EQ(state_.revocations.value(), 1u);
}

TEST_F(PipmStateTest, LocalAccessesRechargeTheCounter)
{
    feed(1, 0, cfg_.pipm.migrationThreshold);
    // Interleave local and inter-host accesses 1:1 -> never revokes.
    for (unsigned i = 0; i < 50; ++i) {
        state_.localOwnerAccess(0, 1);
        EXPECT_FALSE(state_.interHostAccess(0, 1).revoked);
    }
    EXPECT_TRUE(state_.hasLocalEntry(0, 1));
}

TEST_F(PipmStateTest, RevocationFreesTheLocalFrame)
{
    feed(1, 0, cfg_.pipm.migrationThreshold);
    const std::uint64_t used = space_.migratedFramesOn(0);
    EXPECT_EQ(used, 1u);
    state_.revoke(0, 1);
    EXPECT_EQ(space_.migratedFramesOn(0), 0u);
}

TEST_F(PipmStateTest, NoRepromotionWhileMigrated)
{
    feed(1, 0, cfg_.pipm.migrationThreshold);
    const VoteOutcome again = feed(1, 1, 100);
    EXPECT_FALSE(again.promoted);
    EXPECT_EQ(state_.migratedHostOf(1), 0);
}

TEST(PipmStaticMode, StaticMappingAndNoRevocation)
{
    SystemConfig cfg = testConfig();
    AddressSpace space(cfg, 64 * pageBytes, 8 * pageBytes);
    PipmState state(cfg.pipm, cfg.numHosts, PipmMode::staticMap, space);

    // Page p belongs to host p % numHosts; only that host instantiates.
    const PageFrame page_for_h1 = 3;   // 3 % 2 == 1
    EXPECT_FALSE(state.deviceAccess(page_for_h1, 0).promoted);
    const VoteOutcome out = state.deviceAccess(page_for_h1, 1);
    EXPECT_TRUE(out.promoted);
    EXPECT_EQ(out.promotedTo, 1);
    // Inter-host accesses never revoke the static mapping.
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(state.interHostAccess(1, page_for_h1).revoked);
}

/**
 * Property: the hardware vote fires only when some host's accesses
 * exceed all others combined within the counter dynamics — in particular
 * it never fires for a page whose per-host shares are all below 50%
 * by a solid margin over a long uniform-random stream.
 */
TEST(PipmVoteProperty, UniformTrafficDoesNotPromote)
{
    SystemConfig cfg = testConfig();
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        AddressSpace space(cfg, 64 * pageBytes, 8 * pageBytes);
        PipmState state(cfg.pipm, cfg.numHosts, PipmMode::vote, space);
        Rng rng(seed);
        unsigned promotions = 0;
        for (int i = 0; i < 20000; ++i) {
            const auto h = static_cast<HostId>(rng.below(cfg.numHosts));
            if (state.deviceAccess(11, h).promoted)
                ++promotions;
        }
        // With 2 hosts at 50/50 the random walk can occasionally brush
        // the threshold; it must stay rare.
        EXPECT_LE(promotions, 1u) << "seed " << seed;
    }
}

TEST_F(PipmStateTest, DisabledPagesAreNeverPromoted)
{
    state_.setMigrationAllowed(1, false);
    feed(1, 0, 100);
    EXPECT_EQ(state_.migratedHostOf(1), invalidHost);
    EXPECT_FALSE(state_.hasLocalEntry(0, 1));
    // Re-enabling restores normal behaviour.
    state_.setMigrationAllowed(1, true);
    EXPECT_TRUE(state_.migrationAllowed(1));
    feed(1, 0, cfg_.pipm.migrationThreshold);
    EXPECT_EQ(state_.migratedHostOf(1), 0);
}

TEST_F(PipmStateTest, DisablingOnePageDoesNotAffectOthers)
{
    state_.setMigrationAllowed(1, false);
    feed(2, 0, cfg_.pipm.migrationThreshold);
    EXPECT_EQ(state_.migratedHostOf(2), 0);
}

/** Property: a 60%-dominant host always wins eventually. */
TEST(PipmVoteProperty, DominantHostEventuallyPromotes)
{
    SystemConfig cfg = testConfig();
    for (std::uint64_t seed : {10ull, 20ull, 30ull}) {
        AddressSpace space(cfg, 64 * pageBytes, 8 * pageBytes);
        PipmState state(cfg.pipm, cfg.numHosts, PipmMode::vote, space);
        Rng rng(seed);
        bool promoted = false;
        for (int i = 0; i < 5000 && !promoted; ++i) {
            const HostId h = rng.chance(0.65) ? HostId(0) : HostId(1);
            promoted = state.deviceAccess(13, h).promoted;
        }
        EXPECT_TRUE(promoted) << "seed " << seed;
    }
}

} // namespace
} // namespace pipm
