/**
 * @file
 * Unit tests for the set-associative array and replacement policies,
 * including a model check that every path returning a payload returns
 * what was inserted (payload storage is built on fill, not zeroed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace pipm
{
namespace
{

struct Payload
{
    int v = 0;
};

TEST(SetAssoc, InsertThenLookup)
{
    SetAssoc<Payload> cache(4, 2);
    EXPECT_EQ(cache.lookup(10), nullptr);
    EXPECT_FALSE(cache.insert(10, Payload{7}));
    ASSERT_NE(cache.lookup(10), nullptr);
    EXPECT_EQ(cache.lookup(10)->v, 7);
    EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(SetAssoc, LruEvictsLeastRecentlyUsed)
{
    // Single set, 2 ways: the untouched key is the victim.
    SetAssoc<Payload> cache(1, 2);
    cache.insert(1, Payload{1});
    cache.insert(2, Payload{2});
    cache.lookup(1);   // make key 2 the LRU
    auto evicted = cache.insert(3, Payload{3});
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->key, 2u);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(SetAssoc, InvalidateRemoves)
{
    SetAssoc<Payload> cache(4, 2);
    cache.insert(5, Payload{5});
    auto out = cache.invalidate(5);
    ASSERT_TRUE(out);
    EXPECT_EQ(out->meta.v, 5);
    EXPECT_EQ(cache.lookup(5), nullptr);
    EXPECT_FALSE(cache.invalidate(5));
}

TEST(SetAssoc, ProbeDoesNotTouchReplacementState)
{
    SetAssoc<Payload> cache(1, 2);
    cache.insert(1, Payload{});
    cache.insert(2, Payload{});
    cache.probe(1);   // must NOT refresh key 1
    auto evicted = cache.insert(3, Payload{});
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->key, 1u);
}

TEST(SetAssoc, CapacityNeverExceeded)
{
    SetAssoc<Payload> cache(8, 4);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        if (!cache.probe(k))
            cache.insert(k, Payload{});
    }
    EXPECT_LE(cache.occupancy(), cache.capacity());
    EXPECT_EQ(cache.capacity(), 32u);
}

TEST(SetAssoc, DuplicateInsertPanics)
{
    ThrowOnErrorScope guard;
    SetAssoc<Payload> cache(4, 2);
    cache.insert(9, Payload{});
    EXPECT_THROW(cache.insert(9, Payload{}), SimError);
}

TEST(SetAssoc, ForEachVisitsAllValidEntries)
{
    SetAssoc<Payload> cache(8, 2);
    for (int k = 0; k < 10; ++k)
        cache.insert(k, Payload{k});
    std::set<std::uint64_t> keys;
    cache.forEach([&keys](const SetAssoc<Payload>::Entry &e) {
        keys.insert(e.key);
    });
    EXPECT_EQ(keys.size(), cache.occupancy());
}

TEST(SetAssoc, ClearEmptiesEverything)
{
    SetAssoc<Payload> cache(8, 2);
    for (int k = 0; k < 10; ++k)
        cache.insert(k, Payload{});
    cache.clear();
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST(SetAssoc, WithCapacityRoundsToPowerOfTwoSets)
{
    auto cache = SetAssoc<Payload>::withCapacity(1000, 8);
    // 1000/8 = 125 sets -> rounded down to 64.
    EXPECT_EQ(cache.sets(), 64u);
    EXPECT_EQ(cache.ways(), 8u);
}

TEST(SetAssoc, RandomPolicyStillBoundsOccupancy)
{
    SetAssoc<Payload> cache(4, 4, ReplPolicy::random, 99);
    for (std::uint64_t k = 0; k < 500; ++k) {
        if (!cache.probe(k))
            cache.insert(k, Payload{});
    }
    EXPECT_LE(cache.occupancy(), 16u);
}

TEST(SetAssoc, SrripEvictsSomethingValid)
{
    SetAssoc<Payload> cache(1, 4, ReplPolicy::srrip);
    for (std::uint64_t k = 0; k < 4; ++k)
        cache.insert(k, Payload{});
    auto evicted = cache.insert(100, Payload{});
    ASSERT_TRUE(evicted);
    EXPECT_LT(evicted->key, 4u);
    EXPECT_NE(cache.lookup(100), nullptr);
}

/** A payload whose default is not all-zero bytes. */
struct Marked
{
    std::uint64_t a = 0xa5a5a5a5a5a5a5a5ull;
    std::uint32_t b = 7;

    bool operator==(const Marked &) const = default;
};

class PayloadModel : public ::testing::TestWithParam<ReplPolicy>
{
};

// Drive every payload-returning path against a key -> payload model:
// lookup, probe, insert, insertIfAbsent, acquire and
// insertOrGet (resident and fresh), invalidate, each evicted Entry, and
// forEach. Presence and payload must match the model after every step.
// Geometries with a way count that is not a power of two (and a single
// set) check that records are found from (set, way) alone.
void
checkPayloadModel(unsigned sets, unsigned ways, ReplPolicy policy)
{
    SetAssoc<Marked> cache(sets, ways, policy, 5);
    const std::uint64_t keySpace = 3 * cache.capacity();
    std::map<std::uint64_t, Marked> model;
    Rng rng(23);
    std::uint32_t serial = 0;
    auto fresh = [&serial] {
        ++serial;
        return Marked{0x1000ull * serial + 3, serial};
    };
    auto evictedFromModel =
        [&model](const std::optional<SetAssoc<Marked>::Entry> &e) {
            if (!e)
                return;
            const auto it = model.find(e->key);
            ASSERT_NE(it, model.end()) << "evicted a key never inserted";
            EXPECT_EQ(e->meta, it->second) << "evicted key " << e->key;
            model.erase(it);
        };
    auto expectResident = [&model](std::uint64_t key, const Marked *m) {
        const auto it = model.find(key);
        ASSERT_NE(it, model.end());
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(*m, it->second) << "key " << key;
    };

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = rng.below(keySpace);
        const bool present = model.contains(key);
        switch (rng.below(8)) {
          case 0: {
            Marked *m = cache.lookup(key);
            EXPECT_EQ(m != nullptr, present) << "lookup " << key;
            if (m)
                expectResident(key, m);
            break;
          }
          case 1: {
            const Marked *m = cache.probe(key);
            EXPECT_EQ(m != nullptr, present) << "probe " << key;
            if (m)
                expectResident(key, m);
            break;
          }
          case 2:
            if (!present) {
                const Marked v = fresh();
                evictedFromModel(cache.insert(key, v));
                model[key] = v;
            }
            break;
          case 3: {
            const Marked v = fresh();
            auto e = cache.insertIfAbsent(key, v);
            if (!present) {
                evictedFromModel(e);
                model[key] = v;
            } else {
                EXPECT_FALSE(e);
            }
            break;
          }
          case 4:
          case 5: {
            const Marked v = fresh();
            std::optional<SetAssoc<Marked>::Entry> e;
            bool resident = false;
            Marked *m = rng.chance(0.5)
                            ? cache.acquire(key, v, e, resident)
                            : cache.insertOrGet(key, v, e, resident);
            EXPECT_EQ(resident, present);
            if (!present) {
                evictedFromModel(e);
                model[key] = v;
            }
            expectResident(key, m);
            ASSERT_NE(m, nullptr);
            // Writes through the returned pointer stick.
            m->b += 1000;
            model[key].b += 1000;
            break;
          }
          case 6: {
            auto e = cache.invalidate(key);
            EXPECT_EQ(e.has_value(), present) << "invalidate " << key;
            if (e) {
                EXPECT_EQ(e->key, key);
                EXPECT_EQ(e->meta, model.at(key));
                model.erase(key);
            }
            break;
          }
          default: {
            std::size_t seen = 0;
            cache.forEach([&](const SetAssoc<Marked>::Entry &e) {
                ++seen;
                const auto it = model.find(e.key);
                ASSERT_NE(it, model.end()) << "forEach key " << e.key;
                EXPECT_EQ(e.meta, it->second) << "forEach key " << e.key;
            });
            EXPECT_EQ(seen, model.size());
            break;
          }
        }
        ASSERT_FALSE(::testing::Test::HasFailure()) << "step " << step;
    }
    EXPECT_EQ(cache.occupancy(), model.size());
}

TEST_P(PayloadModel, EveryPathReturnsWhatWasInserted)
{
    const std::pair<unsigned, unsigned> geometries[] = {
        {8, 4}, {1, 3}, {8, 13}, {64, 20}};
    for (const auto &[sets, ways] : geometries) {
        SCOPED_TRACE(::testing::Message() << sets << "x" << ways);
        checkPayloadModel(sets, ways, GetParam());
        if (::testing::Test::HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PayloadModel,
    ::testing::Values(ReplPolicy::lru, ReplPolicy::random,
                      ReplPolicy::srrip),
    [](const ::testing::TestParamInfo<ReplPolicy> &info) {
        switch (info.param) {
          case ReplPolicy::lru: return std::string("lru");
          case ReplPolicy::random: return std::string("random");
          case ReplPolicy::srrip: break;
        }
        return std::string("srrip");
    });

TEST(SetAssoc, DefaultPayloadIsTheInsertedOneNotZeroBytes)
{
    SetAssoc<Marked> cache(4, 2);
    cache.insert(1, Marked{});
    ASSERT_NE(cache.probe(1), nullptr);
    EXPECT_EQ(*cache.probe(1), Marked{});
}

// One set of `ways` ways against a slot model: a fill takes the lowest
// free way, a full set evicts its least recently touched key (fills and
// lookups touch; probes and a resident insertIfAbsent do not), and
// forEach lists the keys in way order. The golden digests and
// rotateFrom depend on that slot order.
TEST(SetAssoc, OneSetFillsTheLowestFreeWayAndEvictsTheLeastRecentlyTouched)
{
    for (const unsigned ways : {1u, 3u, 7u, 16u}) {
        SCOPED_TRACE(::testing::Message() << ways << " ways");
        SetAssoc<Payload> cache(1, ways);
        std::vector<std::optional<std::uint64_t>> slots(ways);
        std::map<std::uint64_t, std::uint64_t> touched;   // key -> time
        std::uint64_t now = 0;
        std::uint64_t next_key = 1000;
        Rng rng(ways);
        for (int step = 0; step < 4000; ++step) {
            std::vector<std::uint64_t> resident;
            for (const auto &slot : slots) {
                if (slot)
                    resident.push_back(*slot);
            }
            const std::uint64_t op = rng.below(5);
            if (op < 3 && !resident.empty()) {
                const std::uint64_t key =
                    resident[rng.below(resident.size())];
                if (op == 0) {
                    ASSERT_NE(cache.lookup(key), nullptr);
                    touched[key] = ++now;
                } else if (op == 1) {
                    ASSERT_TRUE(cache.invalidate(key));
                    *std::find(slots.begin(), slots.end(), key) =
                        std::nullopt;
                    touched.erase(key);
                } else {
                    EXPECT_NE(cache.probe(key), nullptr);
                    EXPECT_FALSE(cache.insertIfAbsent(key, Payload{}));
                }
            } else {
                const std::uint64_t key = next_key++;
                auto way = std::find(slots.begin(), slots.end(),
                                     std::nullopt);
                std::optional<std::uint64_t> victim;
                if (way == slots.end()) {
                    way = std::min_element(
                        slots.begin(), slots.end(),
                        [&](const auto &a, const auto &b) {
                            return touched.at(*a) < touched.at(*b);
                        });
                    victim = *way;
                    touched.erase(*victim);
                }
                const auto evicted = cache.insert(key, Payload{});
                ASSERT_EQ(evicted.has_value(), victim.has_value());
                if (victim) {
                    EXPECT_EQ(evicted->key, *victim);
                }
                *way = key;
                touched[key] = ++now;
            }
            std::vector<std::uint64_t> want;
            for (const auto &slot : slots) {
                if (slot)
                    want.push_back(*slot);
            }
            std::vector<std::uint64_t> got;
            cache.forEach([&got](const SetAssoc<Payload>::Entry &e) {
                got.push_back(e.key);
            });
            ASSERT_EQ(got, want) << "step " << step;
        }
    }
}

/**
 * The reference rotation: list the valid keys in forEach order, then
 * offer `listed[(pick + k) % size]` (unsigned, so pick + k wraps at
 * 2^64) until `accept` takes one. Returns every offered key.
 */
template <typename Accept>
std::vector<std::uint64_t>
listedRotation(const SetAssoc<Payload> &cache, std::uint64_t pick,
               Accept accept)
{
    std::vector<std::uint64_t> listed;
    cache.forEach([&](const SetAssoc<Payload>::Entry &e) {
        listed.push_back(e.key);
    });
    std::vector<std::uint64_t> offered;
    for (std::size_t k = 0; k < listed.size(); ++k) {
        offered.push_back(listed[(pick + k) % listed.size()]);
        if (accept(offered.back()))
            break;
    }
    return offered;
}

TEST(SetAssoc, RotateFromMatchesTheListedRotation)
{
    // Geometries: tag strips shorter than one SWAR word, ways that are
    // not a multiple of 8 (the per-byte tail), and strips longer than
    // one 255-word counting block.
    const std::pair<unsigned, unsigned> geometries[] = {
        {1, 1}, {1, 3}, {2, 7}, {4, 8}, {8, 13}, {16, 16},
        {64, 20}, {256, 13}, {1024, 16}};
    Rng rng(23);
    for (const auto &[sets, ways] : geometries) {
        for (int trial = 0; trial < 12; ++trial) {
            SetAssoc<Payload> cache(sets, ways);
            const std::uint64_t cap = cache.capacity();
            // Empty, full, and random fills with random holes.
            std::uint64_t inserts = 0;
            if (trial == 1)
                inserts = 8 * cap;
            else if (trial > 1)
                inserts = rng.below(2 * cap + 1);
            for (std::uint64_t i = 0; i < inserts; ++i)
                cache.insertIfAbsent(rng.below(16 * cap + 16), Payload{});
            if (trial > 3) {
                const std::uint64_t drops = rng.below(cap + 1);
                for (std::uint64_t i = 0; i < drops; ++i)
                    cache.invalidate(rng.below(16 * cap + 16));
            }
            std::uint64_t n = 0;
            cache.forEach([&](const SetAssoc<Payload>::Entry &) { ++n; });
            ASSERT_EQ(cache.occupancy(), n);
            if (trial == 1) {
                ASSERT_EQ(n, cap);
            }

            for (int event = 0; event < 16; ++event) {
                // Random picks, small picks, and picks within 2n of
                // 2^64, so that pick + k wraps during the rotation.
                std::uint64_t pick = rng.next();
                if (event % 4 == 1)
                    pick = rng.below(2 * n + 1);
                else if (event % 4 >= 2)
                    pick = ~std::uint64_t{0} - rng.below(2 * n + 1);
                // fn rejects a random subset (quarantined entries):
                // none, about half, almost all, or every key.
                const double rates[] = {0.0, 0.5, 0.95, 1.0};
                const double reject = rates[event % 4 == 2
                                                ? 3
                                                : rng.below(4)];
                const std::uint64_t salt = rng.next();
                auto accept = [&](std::uint64_t key) {
                    Rng r(key ^ salt);
                    return !r.chance(reject);
                };
                const auto want = listedRotation(cache, pick, accept);
                std::vector<std::uint64_t> got;
                const auto taken = cache.rotateFrom(
                    pick, [&](std::uint64_t key) {
                        got.push_back(key);
                        return accept(key);
                    });
                ASSERT_EQ(got, want) << sets << "x" << ways << " pick "
                                     << pick << " of " << n;
                if (!want.empty() && accept(want.back())) {
                    ASSERT_TRUE(taken.has_value());
                    EXPECT_EQ(*taken, want.back());
                } else {
                    EXPECT_FALSE(taken.has_value());
                }
            }
        }
    }
}

TEST(Replacement, LruVictimIsSmallestStamp)
{
    Replacement repl(ReplPolicy::lru);
    std::vector<ReplWord> words = {5, 2, 9, 3};
    EXPECT_EQ(repl.victim(words), 1u);
}

TEST(Replacement, SrripAgesUntilMax)
{
    Replacement repl(ReplPolicy::srrip);
    std::vector<ReplWord> words = {0, 1, 2, 1};
    const std::size_t v = repl.victim(words);
    EXPECT_EQ(v, 2u);
    // The chosen victim's word must have reached srripMax.
    EXPECT_GE(words[v], srripMax);
}

TEST(Replacement, OnHitRefreshesLru)
{
    Replacement repl(ReplPolicy::lru);
    EXPECT_EQ(repl.onHit(3, 42), 42u);
    EXPECT_EQ(repl.onFill(7), 7u);
}

} // namespace
} // namespace pipm
