/**
 * @file
 * Tests for the workload catalog and the synthetic trace generators:
 * Table 1 contents, determinism, and statistical properties (affinity,
 * read fraction, bounds, drift), and concurrent trace construction.
 */

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "workloads/catalog.hh"

namespace pipm
{
namespace
{

constexpr unsigned scale = 256;

TEST(Catalog, ContainsAllThirteenTable1Workloads)
{
    const auto &patterns = table1Patterns();
    ASSERT_EQ(patterns.size(), 13u);
    const std::vector<std::string> expected = {
        "sssp", "bfs", "pr", "cc", "bc", "tc", "xsbench",
        "streamcluster", "fluidanimate", "canneal", "bodytrack",
        "tpcc", "ycsb"};
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(patterns[i].name, expected[i]);
}

TEST(Catalog, FootprintsMatchTable1)
{
    std::map<std::string, std::uint64_t> gb = {
        {"sssp", 48}, {"bfs", 48},          {"pr", 48},
        {"cc", 48},   {"bc", 48},           {"tc", 48},
        {"xsbench", 42}, {"streamcluster", 18},
        {"fluidanimate", 10}, {"canneal", 12}, {"bodytrack", 8},
        {"tpcc", 24}, {"ycsb", 15}};
    for (const auto &p : table1Patterns())
        EXPECT_EQ(p.footprintFullBytes, gb.at(p.name) << 30) << p.name;
}

TEST(Catalog, ByNameRoundTrips)
{
    auto wl = workloadByName("ycsb", scale);
    EXPECT_EQ(wl->name(), "ycsb");
    EXPECT_EQ(wl->suite(), "Silo");
    EXPECT_EQ(wl->sharedBytes(), (15ull << 30) / scale);
}

TEST(Catalog, UnknownNameIsFatal)
{
    ThrowOnErrorScope guard;
    EXPECT_THROW(workloadByName("nope", scale), SimError);
}

TEST(Synthetic, TracesAreDeterministic)
{
    auto wl = workloadByName("pr", scale);
    auto a = wl->makeTrace(0, 0, 4, 4, 99);
    auto b = wl->makeTrace(0, 0, 4, 4, 99);
    for (int i = 0; i < 1000; ++i) {
        const MemRef ra = a->next();
        const MemRef rb = b->next();
        EXPECT_EQ(ra.page, rb.page);
        EXPECT_EQ(ra.lineIdx, rb.lineIdx);
        EXPECT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
        EXPECT_EQ(ra.gap, rb.gap);
    }
}

TEST(Synthetic, DifferentCoresDiffer)
{
    auto wl = workloadByName("pr", scale);
    auto a = wl->makeTrace(0, 0, 4, 4, 99);
    auto b = wl->makeTrace(0, 1, 4, 4, 99 + 7919);
    int same = 0;
    for (int i = 0; i < 200; ++i)
        same += a->next().page == b->next().page;
    EXPECT_LT(same, 100);
}

TEST(Synthetic, ReferencesStayInBounds)
{
    auto wl = workloadByName("canneal", scale);
    const std::uint64_t shared_pages = wl->sharedBytes() / pageBytes;
    const std::uint64_t private_pages =
        wl->privateBytesPerHost() / pageBytes;
    auto trace = wl->makeTrace(2, 1, 4, 4, 5);
    for (int i = 0; i < 50000; ++i) {
        const MemRef r = trace->next();
        EXPECT_LT(r.lineIdx, linesPerPage);
        if (r.shared)
            EXPECT_LT(r.page, shared_pages);
        else
            EXPECT_LT(r.page, private_pages);
    }
}

/** Property sweep: the generated stream matches its parameters. */
class PatternStats : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PatternStats, ReadFractionAndAffinityMatchParameters)
{
    auto base = workloadByName(GetParam(), scale);
    const auto &wl = dynamic_cast<const SyntheticWorkload &>(*base);
    const PatternParams &p = wl.params();
    constexpr unsigned hosts = 4;
    const std::uint64_t partition_pages =
        wl.sharedBytes() / pageBytes / hosts;

    auto trace = wl.makeTrace(1, 0, 4, hosts, 77);
    std::uint64_t reads = 0, total = 0, shared = 0, own = 0, hot = 0;
    constexpr int n = 200000;
    const std::uint64_t hot_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(wl.sharedBytes() / pageBytes *
                                      p.globalHotSpan));
    for (int i = 0; i < n; ++i) {
        const MemRef r = trace->next();
        ++total;
        reads += r.op == MemOp::read;
        if (r.shared) {
            ++shared;
            if (r.page < hot_pages)
                ++hot;
            else if (r.page / partition_pages == 1)
                ++own;
        }
    }
    EXPECT_NEAR(double(reads) / total, p.readFrac, 0.02) << GetParam();
    EXPECT_NEAR(double(shared) / total, 1.0 - p.privateFrac, 0.02);
    // Non-hot shared references land in the own partition at least at
    // the affinity rate (the scan adds own-partition traffic on top).
    const double own_frac = double(own) / double(shared - hot);
    EXPECT_GE(own_frac, p.partitionAffinity - 0.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PatternStats,
                         ::testing::Values("sssp", "bfs", "pr", "cc",
                                           "bc", "tc", "xsbench",
                                           "streamcluster",
                                           "fluidanimate", "canneal",
                                           "bodytrack", "tpcc", "ycsb"));

TEST(Synthetic, ScanDriftMovesTheWindow)
{
    auto wl = workloadByName("pr", scale);
    auto trace = wl->makeTrace(0, 0, 1, 4, 3);
    // Collect the scan pages early and late; the drift must introduce
    // pages unseen early.
    std::set<std::uint64_t> early, late;
    for (int i = 0; i < 50000; ++i)
        early.insert(trace->next().page);
    for (int i = 0; i < 400000; ++i)
        trace->next();
    for (int i = 0; i < 50000; ++i)
        late.insert(trace->next().page);
    std::uint64_t fresh = 0;
    for (std::uint64_t p : late)
        fresh += !early.contains(p);
    EXPECT_GT(fresh, late.size() / 10);
}

// Sweep workers call makeTrace concurrently on one const workload, and
// the zipf normaliser table is the state they share. Eight threads build
// their streams at once on a cold table; each must equal the stream the
// same (host, core, seed) gives when built alone afterwards.
TEST(Synthetic, ConcurrentMakeTraceMatchesSerial)
{
    constexpr unsigned threads = 8, hosts = 4, cores = 2;
    constexpr int refs = 10000;
    // Partition sizes no other case here builds: the table is cold.
    const auto wl = workloadByName("xsbench", scale / 2);
    auto stream = [&wl](unsigned t) {
        auto trace = wl->makeTrace(static_cast<HostId>(t % hosts),
                                   static_cast<CoreId>(t / hosts), cores,
                                   hosts, 1000 + t);
        std::vector<MemRef> out(refs);
        for (MemRef &r : out)
            r = trace->next();
        return out;
    };
    std::vector<std::vector<MemRef>> concurrent(threads);
    {
        std::latch start(threads);
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                start.arrive_and_wait();
                concurrent[t] = stream(t);
            });
        }
    }
    for (unsigned t = 0; t < threads; ++t) {
        const std::vector<MemRef> serial = stream(t);
        for (int i = 0; i < refs; ++i) {
            const MemRef &a = concurrent[t][i], &b = serial[i];
            ASSERT_TRUE(a.page == b.page && a.lineIdx == b.lineIdx &&
                        a.op == b.op && a.gap == b.gap &&
                        a.shared == b.shared)
                << "thread " << t << " ref " << i;
        }
    }
}

} // namespace
} // namespace pipm
