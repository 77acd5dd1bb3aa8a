/**
 * @file
 * Unit and randomized-model tests for the open-addressing FlatMap and
 * FlatSet (common/flat_map.hh). The randomized suites drive the same
 * operation sequence through a std::unordered_map reference model and
 * require identical observable state after every step — in particular
 * across erases, which use backward-shift deletion.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hh"

namespace
{

using pipm::FlatMap;
using pipm::FlatSet;

TEST(FlatMap, StartsEmpty)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(1), m.end());
    EXPECT_FALSE(m.contains(1));
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    auto [it, inserted] = m.emplace(7, 42);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(it->first, 7u);
    EXPECT_EQ(it->second, 42);
    EXPECT_EQ(m.size(), 1u);

    auto [it2, inserted2] = m.emplace(7, 99);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(it2->second, 42);

    m[7] = 11;
    EXPECT_EQ(m.at(7), 11);
    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, OperatorBracketDefaultConstructs)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    EXPECT_EQ(m[5], 0u);
    m[5] += 3;
    EXPECT_EQ(m.at(5), 3u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, GrowsPastInitialCapacityAndKeepsEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 10'000; ++k)
        m.emplace(k * 0x10001ull, k);
    EXPECT_EQ(m.size(), 10'000u);
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        auto it = m.find(k * 0x10001ull);
        ASSERT_NE(it, m.end());
        EXPECT_EQ(it->second, k);
    }
}

TEST(FlatMap, ReservePreventsInvalidationDuringFill)
{
    FlatMap<std::uint64_t, int> m;
    m.reserve(1000);
    const std::size_t cap = m.capacity();
    for (std::uint64_t k = 0; k < 1000; ++k)
        m.emplace(k, static_cast<int>(k));
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, SortedKeysIsSortedAndComplete)
{
    FlatMap<std::uint64_t, int> m;
    const std::uint64_t keys[] = {9, 1, 1u << 30, 4, 77, 3};
    for (std::uint64_t k : keys)
        m.emplace(k, 0);
    const std::vector<std::uint64_t> sorted = m.sortedKeys();
    ASSERT_EQ(sorted.size(), std::size(keys));
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
    for (std::uint64_t k : keys)
        EXPECT_TRUE(std::find(sorted.begin(), sorted.end(), k) !=
                    sorted.end());
}

TEST(FlatMap, EraseByIteratorRemovesEntry)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m.emplace(k, static_cast<int>(k));
    // erase(iterator) invalidates iterators (backward shift), so each
    // erase re-finds its target; sortedKeys snapshots the victims.
    std::size_t erased = 0;
    for (std::uint64_t k : m.sortedKeys()) {
        if (k % 2 == 0) {
            m.erase(m.find(k));
            ++erased;
        }
    }
    EXPECT_EQ(erased, 50u);
    EXPECT_EQ(m.size(), 50u);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(m.contains(k), k % 2 == 1);
}

TEST(FlatMap, BackwardShiftKeepsCollidingKeysFindable)
{
    // Keys that collide module a small capacity exercise the
    // backward-shift displacement condition on erase.
    FlatMap<std::uint64_t, int> m;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 64; ++k)
        keys.push_back(k * 16);   // strided keys stress probe runs
    for (std::uint64_t k : keys)
        m.emplace(k, static_cast<int>(k));
    // Erase every third key, then verify everything else.
    for (std::size_t i = 0; i < keys.size(); i += 3)
        EXPECT_TRUE(m.erase(keys[i]));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 3 == 0)
            EXPECT_FALSE(m.contains(keys[i]));
        else
            EXPECT_TRUE(m.contains(keys[i]));
    }
}

TEST(FlatMap, RandomizedAgainstUnorderedMapModel)
{
    std::mt19937_64 rng(12345);
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> model;
    // A small key universe forces plenty of hits, misses, duplicate
    // inserts and erases of present keys.
    const std::uint64_t universe = 512;
    for (int step = 0; step < 100'000; ++step) {
        const std::uint64_t key = rng() % universe;
        switch (rng() % 4) {
          case 0: {   // emplace
            const std::uint64_t value = rng();
            auto [mit, mins] = m.emplace(key, value);
            auto [uit, uins] = model.emplace(key, value);
            EXPECT_EQ(mins, uins);
            EXPECT_EQ(mit->second, uit->second);
            break;
          }
          case 1: {   // insert_or_assign
            const std::uint64_t value = rng();
            m.insert_or_assign(key, value);
            model[key] = value;
            break;
          }
          case 2: {   // erase
            EXPECT_EQ(m.erase(key), model.erase(key) != 0);
            break;
          }
          default: {   // find
            auto mit = m.find(key);
            auto uit = model.find(key);
            ASSERT_EQ(mit == m.end(), uit == model.end());
            if (uit != model.end()) {
                EXPECT_EQ(mit->second, uit->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), model.size());
    }
    // Full-state comparison at the end.
    for (const auto &[k, v] : model) {
        auto it = m.find(k);
        ASSERT_NE(it, m.end());
        EXPECT_EQ(it->second, v);
    }
    std::size_t iterated = 0;
    for (const auto &[k, v] : m) {
        auto uit = model.find(k);
        ASSERT_NE(uit, model.end());
        EXPECT_EQ(v, uit->second);
        ++iterated;
    }
    EXPECT_EQ(iterated, model.size());
}

/** A mapped type whose default is not all-zero bytes. */
struct Tagged
{
    std::uint64_t a = 0x5a5a5a5a5a5a5a5aull;
    std::uint32_t b = 9;

    bool operator==(const Tagged &) const = default;
};

Tagged
taggedFor(std::uint64_t k)
{
    return Tagged{k * 0x9e3779b97f4a7c15ull, static_cast<std::uint32_t>(k)};
}

/** find, both at()s and a full iteration agree with the model. */
void
expectMatchesModel(FlatMap<std::uint64_t, Tagged> &m,
                   const std::unordered_map<std::uint64_t, Tagged> &model)
{
    ASSERT_EQ(m.size(), model.size());
    const auto &cm = m;
    for (const auto &[k, v] : model) {
        const auto it = m.find(k);
        ASSERT_NE(it, m.end()) << k;
        EXPECT_EQ(it->first, k);
        EXPECT_EQ(it->second, v) << k;
        EXPECT_EQ(m.at(k), v) << k;
        EXPECT_EQ(cm.at(k), v) << k;
        EXPECT_EQ(cm.find(k)->second, v) << k;
    }
    std::size_t iterated = 0;
    for (const auto &[k, v] : cm) {
        const auto uit = model.find(k);
        ASSERT_NE(uit, model.end()) << k;
        EXPECT_EQ(v, uit->second) << k;
        ++iterated;
    }
    EXPECT_EQ(iterated, model.size());
}

// Slot storage is left unwritten on reserve and rehash; every path that
// returns a value must return what was inserted, never slot bytes.
TEST(FlatMap, ValuesSurviveGrowthAndBackwardShiftErase)
{
    for (const std::size_t reserved : {std::size_t{0}, std::size_t{300}}) {
        FlatMap<std::uint64_t, Tagged> m;
        m.reserve(reserved);
        std::unordered_map<std::uint64_t, Tagged> model;
        // Strided keys make long probe runs; 1000 keys grow the table
        // through several rehashes either way.
        for (std::uint64_t i = 0; i < 1000; ++i) {
            const std::uint64_t k = i * 64;
            if (i % 5 == 0) {
                // operator[] on an absent key yields V{}, not zeros.
                EXPECT_EQ(m[k], Tagged{});
                model[k] = Tagged{};
            } else {
                m.emplace(k, taggedFor(k));
                model[k] = taggedFor(k);
            }
        }
        expectMatchesModel(m, model);
        // Backward-shift erase moves survivors between slots.
        for (std::uint64_t i = 0; i < 1000; i += 3) {
            EXPECT_TRUE(m.erase(i * 64));
            model.erase(i * 64);
        }
        expectMatchesModel(m, model);
        // Refill the holes the erases left and grow once more.
        for (std::uint64_t i = 0; i < 2000; i += 3) {
            m.insert_or_assign(i * 64, taggedFor(i));
            model[i * 64] = taggedFor(i);
        }
        expectMatchesModel(m, model);
    }
}

TEST(FlatSet, InsertEraseContains)
{
    FlatSet<std::uint64_t> s;
    EXPECT_TRUE(s.insert(3));
    EXPECT_FALSE(s.insert(3));
    EXPECT_TRUE(s.contains(3));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_TRUE(s.erase(3));
    EXPECT_FALSE(s.erase(3));
    EXPECT_FALSE(s.contains(3));
}

TEST(FlatSet, RandomizedAgainstUnorderedSetModel)
{
    std::mt19937_64 rng(999);
    FlatSet<std::uint64_t> s;
    std::unordered_set<std::uint64_t> model;
    for (int step = 0; step < 50'000; ++step) {
        const std::uint64_t key = rng() % 256;
        if (rng() % 2) {
            EXPECT_EQ(s.insert(key), model.insert(key).second);
        } else {
            EXPECT_EQ(s.erase(key), model.erase(key) != 0);
        }
        ASSERT_EQ(s.size(), model.size());
    }
    const std::vector<std::uint64_t> sorted = s.sortedKeys();
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
    EXPECT_EQ(sorted.size(), model.size());
    for (std::uint64_t k : sorted)
        EXPECT_TRUE(model.count(k));
}

} // namespace
