/**
 * @file
 * Property tests over the reduced protocol model: random walks that
 * check the safety invariants at every step (a fuzz complement to the
 * exhaustive BFS), liveness-ish properties (a host can always eventually
 * read its own writes), and encoding stability.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "verify/checker.hh"

namespace pipm
{
namespace
{

/** Pick a uniformly random enabled event. */
bool
randomStep(ProtocolModel &model, ProtoState &s, Rng &rng,
           unsigned num_hosts)
{
    for (int attempts = 0; attempts < 64; ++attempts) {
        const ProtoEvent e =
            allProtoEvents[rng.below(allProtoEvents.size())];
        const auto h = static_cast<HostId>(rng.below(num_hosts));
        if (model.enabled(s, e, h)) {
            s = model.apply(s, e, h);
            return true;
        }
    }
    return false;
}

class RandomWalk : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomWalk, InvariantsHoldAlongRandomTraces)
{
    const unsigned hosts = GetParam();
    ProtocolModel model(hosts);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed * 7919);
        ProtoState s = model.initial();
        for (int step = 0; step < 2000; ++step) {
            ASSERT_TRUE(randomStep(model, s, rng, hosts));
            const std::string why = model.checkInvariants(s);
            ASSERT_TRUE(why.empty())
                << "seed " << seed << " step " << step << ": " << why
                << "\nstate: " << s.describe(hosts);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(HostCounts, RandomWalk,
                         ::testing::Values(2u, 3u, 4u));

TEST(ModelProperties, WriterAlwaysReadsItsOwnWrite)
{
    // After any random prefix, a write by h followed immediately by a
    // read at h must observe a latest copy at h.
    ProtocolModel model(3);
    Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        ProtoState s = model.initial();
        const int prefix = static_cast<int>(rng.below(50));
        for (int i = 0; i < prefix; ++i)
            randomStep(model, s, rng, 3);
        const auto h = static_cast<HostId>(rng.below(3));
        s = model.apply(s, ProtoEvent::write, h);
        s = model.apply(s, ProtoEvent::read, h);
        EXPECT_TRUE(s.host[h].latest) << s.describe(3);
        EXPECT_NE(s.host[h].cache, HostState::I);
    }
}

TEST(ModelProperties, ReadersConvergeToSharedState)
{
    // Every host reading the same line (with no writes in between)
    // leaves all of them with latest copies.
    ProtocolModel model(4);
    ProtoState s = model.initial();
    for (unsigned h = 0; h < 4; ++h)
        s = model.apply(s, ProtoEvent::read, static_cast<HostId>(h));
    for (unsigned h = 0; h < 4; ++h) {
        EXPECT_TRUE(s.host[h].latest);
        EXPECT_EQ(s.host[h].cache, HostState::S);
    }
    EXPECT_EQ(s.dir, DevState::S);
}

TEST(ModelProperties, MigrationRoundTripPreservesTheValue)
{
    // Write at h0, migrate the line to local DRAM, pull it to h1, write
    // there, migrate to h1's local memory after a re-promotion, then
    // read everywhere: the final value must follow the last writer.
    ProtocolModel model(2);
    ProtoState s = model.initial();
    s = model.apply(s, ProtoEvent::promote, 0);
    s = model.apply(s, ProtoEvent::write, 0);
    s = model.apply(s, ProtoEvent::evict, 0);    // case 1 -> I' at h0
    s = model.apply(s, ProtoEvent::write, 1);    // case 2 write: pull
    s = model.apply(s, ProtoEvent::revoke, 0);   // drop the stale entry
    s = model.apply(s, ProtoEvent::promote, 1);
    s = model.apply(s, ProtoEvent::evict, 1);    // case 1 at h1
    s = model.apply(s, ProtoEvent::read, 1);     // case 3
    EXPECT_TRUE(s.host[1].latest);
    s = model.apply(s, ProtoEvent::read, 0);     // case 6 (h1 holds ME)
    EXPECT_TRUE(s.host[0].latest);
    EXPECT_TRUE(model.checkInvariants(s).empty());
}

TEST(ModelProperties, EncodingRoundTripsThroughRandomWalks)
{
    // encode() must distinguish states that differ (no collisions along
    // a random walk trajectory: collisions would silently prune the BFS).
    ProtocolModel model(3);
    Rng rng(5);
    ProtoState s = model.initial();
    std::uint64_t prev = s.encode(3);
    for (int i = 0; i < 5000; ++i) {
        ProtoState before = s;
        randomStep(model, s, rng, 3);
        const std::uint64_t key = s.encode(3);
        if (!(s == before)) {
            EXPECT_NE(key, before.encode(3)) << s.describe(3);
        }
        prev = key;
    }
    (void)prev;
}

TEST(ModelProperties, StateSpaceSizeIsStableAcrossRuns)
{
    const CheckResult a = checkProtocol(2);
    const CheckResult b = checkProtocol(2);
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.transitions, b.transitions);
}

} // namespace
} // namespace pipm
