/**
 * @file
 * Tests for the benchmark sweep driver and TSV cache (bench_common):
 * job-count-independent results, canonical cache files, atomic merge
 * writes, and tolerance of malformed cache rows.
 */

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "fuzz/fuzz.hh"
#include "workloads/catalog.hh"

namespace
{

using namespace pipm;
using namespace pipmbench;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Short-run options writing to a private cache file. */
Options
testOptions(const std::string &cache_path, unsigned jobs)
{
    Options opts;
    opts.measureRefs = 2'000;
    opts.warmupRefs = 500;
    opts.seed = 42;
    opts.cachePath = cache_path;
    opts.jobs = jobs;
    return opts;
}

class SweepTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        for (const std::string &f : cleanup_)
            std::remove(f.c_str());
    }

    std::string
    cachePath(const std::string &name)
    {
        const std::string path = "test_sweep_" + name + ".tsv";
        cleanup_.push_back(path);
        return path;
    }

    std::vector<std::string> cleanup_;
};

TEST_F(SweepTest, JobCountDoesNotChangeResultsOrCacheFile)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Scheme schemes[] = {Scheme::native, Scheme::pipmFull};

    const Options serial = testOptions(cachePath("j1"), 1);
    const Options parallel = testOptions(cachePath("j8"), 8);

    Sweep s1(serial);
    Sweep s8(parallel);
    for (Scheme s : schemes) {
        s1.add(cfg, s, *workload);
        s8.add(cfg, s, *workload);
    }
    EXPECT_EQ(s1.run(), std::size(schemes));
    EXPECT_EQ(s8.run(), std::size(schemes));

    // The cache files must be byte-identical: same rows, same canonical
    // order, regardless of how many worker threads produced them.
    const std::string f1 = slurp(serial.cachePath);
    EXPECT_FALSE(f1.empty());
    EXPECT_EQ(f1, slurp(parallel.cachePath));

    // And the deserialized results must agree field-for-field.
    for (Scheme s : schemes) {
        const RunResult a = cachedRun(cfg, s, *workload, serial);
        const RunResult b = cachedRun(cfg, s, *workload, parallel);
        EXPECT_EQ(a.execCycles, b.execCycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
        EXPECT_EQ(a.interHostAccesses, b.interHostAccesses);
        EXPECT_EQ(a.pipmPromotions, b.pipmPromotions);
        EXPECT_EQ(a.pipmLinesIn, b.pipmLinesIn);
    }
}

TEST_F(SweepTest, RerunHitsCacheAndSimulatesNothing)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("tc", cfg.footprintScale);
    const Options opts = testOptions(cachePath("rerun"), 2);

    Sweep first(opts);
    first.add(cfg, Scheme::native, *workload);
    // Duplicate enqueues dedupe down to one simulation.
    first.add(cfg, Scheme::native, *workload);
    EXPECT_EQ(first.run(), 1u);

    Sweep second(opts);
    second.add(cfg, Scheme::native, *workload);
    EXPECT_EQ(second.run(), 0u);
}

TEST_F(SweepTest, MalformedCacheRowsAreSkippedAndDropped)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("malformed"), 1);

    // Seed the cache with garbage under a valid header: a truncated row,
    // a row with a bad key, and a row whose result columns don't parse.
    {
        std::ofstream out(opts.cachePath);
        out << cacheHeader() << '\n';
        out << "short\n";
        out << "zzzzzzzzzzzzzzzz\t1 2 3\n";
        out << "0123456789abcdef\tnot a number\n";
    }

    // The run must ignore the garbage, simulate, and atomically rewrite
    // the cache with only well-formed rows.
    const RunResult r = cachedRun(cfg, Scheme::native, *workload, opts);
    EXPECT_GT(r.execCycles, 0u);

    std::ifstream in(opts.cachePath);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, cacheHeader());
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        ASSERT_GT(line.size(), 17u);
        EXPECT_EQ(line[16], '\t');
        for (std::size_t i = 0; i < 16; ++i)
            EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(line[i])));
    }
    EXPECT_EQ(rows, 1u);

    // The surviving row must satisfy a second lookup (cache hit).
    const RunResult again = cachedRun(cfg, Scheme::native, *workload, opts);
    EXPECT_EQ(r.execCycles, again.execCycles);
}

TEST_F(SweepTest, MergePreservesRowsWrittenByOthers)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("merge"), 1);

    // First run writes one row.
    cachedRun(cfg, Scheme::native, *workload, opts);
    const std::string before = slurp(opts.cachePath);
    EXPECT_FALSE(before.empty());

    // A second, different experiment merges in without losing the first.
    cachedRun(cfg, Scheme::localOnly, *workload, opts);
    const std::string after = slurp(opts.cachePath);
    EXPECT_NE(before, after);
    EXPECT_NE(after.find(before.substr(0, 16)), std::string::npos);

    std::ifstream in(opts.cachePath);
    std::string line;
    std::getline(in, line);   // header
    std::vector<std::string> keys;
    while (std::getline(in, line))
        keys.push_back(line.substr(0, 16));
    ASSERT_EQ(keys.size(), 2u);
    // Canonical order: sorted by key.
    EXPECT_LT(keys[0], keys[1]);
}

TEST_F(SweepTest, StaleOrMissingHeaderIsIgnoredAndRewritten)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("header"), 1);
    cachedRun(cfg, Scheme::native, *workload, opts);
    const std::string good = slurp(opts.cachePath);
    const std::string row = good.substr(good.find('\n') + 1);

    // The same row without a header, and under a header that lacks the
    // last column (an older layout): both files are ignored as a whole,
    // so the lookup misses, re-simulates and rewrites the file.
    const std::string header = cacheHeader();
    for (const std::string &stale :
         {row, header.substr(0, header.rfind('\t')) + '\n' + row}) {
        {
            std::ofstream out(opts.cachePath, std::ios::trunc);
            out << stale;
        }
        testing::internal::CaptureStderr();
        cachedRun(cfg, Scheme::native, *workload, opts);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("[bench] running"), std::string::npos) << err;
        const auto warning = err.find("warning: ignoring cache");
        EXPECT_NE(warning, std::string::npos) << err;
        EXPECT_EQ(err.find("warning", warning + 1), std::string::npos)
            << "one warning per stale file: " << err;
        EXPECT_EQ(slurp(opts.cachePath), good);
    }
}

TEST_F(SweepTest, CacheHitMatchesMissUnderSuspicionAndMetaFaults)
{
    // The §11 and §12 counters must survive the cache round trip, and a
    // miss must return exactly what the following hit reads back.
    SystemConfig suspect = defaultConfig();
    suspect.fault = paperSuspicionFaultConfig(42);
    SystemConfig meta = defaultConfig();
    meta.fault = paperMetaFaultConfig(42);
    const auto workload = workloadByName("pr", suspect.footprintScale);
    const Options opts = testOptions(cachePath("faults"), 1);

    const RunResult s_miss = cachedRun(suspect, Scheme::pipmFull,
                                       *workload, opts);
    ASSERT_GT(s_miss.suspicions, 0u);
    const RunResult m_miss = cachedRun(meta, Scheme::pipmFull, *workload,
                                       opts);
    ASSERT_GT(m_miss.metaCorruptions, 0u);

    testing::internal::CaptureStderr();
    const RunResult s_hit = cachedRun(suspect, Scheme::pipmFull, *workload,
                                      opts);
    const RunResult m_hit = cachedRun(meta, Scheme::pipmFull, *workload,
                                      opts);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(fuzz::fingerprintResult(s_miss),
              fuzz::fingerprintResult(s_hit));
    EXPECT_EQ(fuzz::fingerprintResult(m_miss),
              fuzz::fingerprintResult(m_hit));
}

} // namespace
