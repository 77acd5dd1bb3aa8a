/**
 * @file
 * Tests for the benchmark sweep driver and TSV cache (bench_common):
 * job-count-independent results in add() order, canonical cache files,
 * atomic merge writes, and tolerance of malformed cache rows. The
 * experiments a run simulates are counted from its "[bench] running"
 * stderr lines.
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
#include "test_support.hh"

namespace
{

using namespace pipm;
using namespace pipmbench;

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

/** One Sweep::run() with its stderr captured. */
struct SweepRun
{
    std::vector<RunResult> results;
    std::string err;
    std::size_t simulated = 0;   ///< "[bench] running" lines in err
};

SweepRun
runCaptured(Sweep &sweep)
{
    SweepRun run;
    testing::internal::CaptureStderr();
    run.results = sweep.run();
    run.err = testing::internal::GetCapturedStderr();
    const std::string mark = "[bench] running ";
    for (auto pos = run.err.find(mark); pos != std::string::npos;
         pos = run.err.find(mark, pos + 1))
        ++run.simulated;
    return run;
}

/** A one-experiment sweep. */
SweepRun
runOne(const SystemConfig &cfg, Scheme scheme, const Workload &workload,
       const Options &opts)
{
    Sweep sweep(opts);
    sweep.add(cfg, scheme, workload);
    return runCaptured(sweep);
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
    const SweepRun r1 = runCaptured(s1);
    const SweepRun r8 = runCaptured(s8);
    EXPECT_EQ(r1.simulated, std::size(schemes));
    EXPECT_EQ(r8.simulated, std::size(schemes));

    // The cache files must be byte-identical: same rows, same canonical
    // order, regardless of how many worker threads produced them.
    const std::string f1 = slurp(serial.cachePath);
    EXPECT_FALSE(f1.empty());
    EXPECT_EQ(f1, slurp(parallel.cachePath));

    // And the results must agree field-for-field.
    ASSERT_EQ(r1.results.size(), std::size(schemes));
    ASSERT_EQ(r8.results.size(), std::size(schemes));
    for (std::size_t i = 0; i < std::size(schemes); ++i) {
        EXPECT_GT(r1.results[i].execCycles, 0u);
        EXPECT_EQ(fuzz::fingerprintResult(r1.results[i]),
                  fuzz::fingerprintResult(r8.results[i]));
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
    const SweepRun miss = runCaptured(first);
    EXPECT_EQ(miss.simulated, 1u);
    ASSERT_EQ(miss.results.size(), 2u);
    EXPECT_EQ(fuzz::fingerprintResult(miss.results[0]),
              fuzz::fingerprintResult(miss.results[1]));

    const SweepRun hit = runOne(cfg, Scheme::native, *workload, opts);
    EXPECT_EQ(hit.simulated, 0u);
    EXPECT_EQ(hit.err, "");
    ASSERT_EQ(hit.results.size(), 1u);
    EXPECT_EQ(fuzz::fingerprintResult(miss.results[0]),
              fuzz::fingerprintResult(hit.results[0]));
}

TEST_F(SweepTest, ResultsFollowAddOrder)
{
    // Every result must be the one its add() enqueued, whatever mix of
    // cache hits, misses and duplicates the sweep holds.
    const SystemConfig cfg = defaultConfig();
    const auto pr = workloadByName("pr", cfg.footprintScale);
    const auto tc = workloadByName("tc", cfg.footprintScale);
    struct Exp
    {
        const Workload *workload;
        Scheme scheme;
    };
    const Exp hit = {pr.get(), Scheme::native};
    const Exp exps[] = {{pr.get(), Scheme::pipmFull},
                        hit,
                        {tc.get(), Scheme::native},
                        {pr.get(), Scheme::pipmFull},
                        {tc.get(), Scheme::localOnly},
                        hit};

    // Reference results, each from a sweep of its own.
    const Options ref_opts = testOptions(cachePath("order_ref"), 1);
    std::vector<std::string> want;
    for (const Exp &e : exps) {
        const SweepRun r = runOne(cfg, e.scheme, *e.workload, ref_opts);
        want.push_back(fuzz::fingerprintResult(r.results.at(0)));
    }

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const Options opts =
            testOptions(cachePath("order_j" + std::to_string(jobs)), jobs);
        ASSERT_EQ(runOne(cfg, hit.scheme, *hit.workload, opts).simulated,
                  1u);

        Sweep sweep(opts);
        for (std::size_t i = 0; i < std::size(exps); ++i)
            EXPECT_EQ(sweep.add(cfg, exps[i].scheme, *exps[i].workload), i);
        const SweepRun run = runCaptured(sweep);
        EXPECT_EQ(run.simulated, 3u) << run.err;
        ASSERT_EQ(run.results.size(), std::size(exps));
        for (std::size_t i = 0; i < std::size(exps); ++i) {
            EXPECT_EQ(run.results[i].workload, exps[i].workload->name());
            EXPECT_EQ(run.results[i].scheme, exps[i].scheme);
            EXPECT_EQ(fuzz::fingerprintResult(run.results[i]), want[i])
                << "result " << i;
        }
    }
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
    const SweepRun miss = runOne(cfg, Scheme::native, *workload, opts);
    EXPECT_EQ(miss.simulated, 1u);
    EXPECT_GT(miss.results.at(0).execCycles, 0u);

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
    const SweepRun hit = runOne(cfg, Scheme::native, *workload, opts);
    EXPECT_EQ(hit.simulated, 0u);
    EXPECT_EQ(miss.results.at(0).execCycles, hit.results.at(0).execCycles);
}

TEST_F(SweepTest, MergePreservesRowsWrittenByOthers)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("merge"), 1);

    // First run writes one row.
    runOne(cfg, Scheme::native, *workload, opts);
    const std::string before = slurp(opts.cachePath);
    EXPECT_FALSE(before.empty());

    // A second, different experiment merges in without losing the first.
    runOne(cfg, Scheme::localOnly, *workload, opts);
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
    runOne(cfg, Scheme::native, *workload, opts);
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
        const SweepRun run = runOne(cfg, Scheme::native, *workload, opts);
        const std::string &err = run.err;
        EXPECT_EQ(run.simulated, 1u) << err;
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

    Sweep cold(opts);
    cold.add(suspect, Scheme::pipmFull, *workload);
    cold.add(meta, Scheme::pipmFull, *workload);
    const SweepRun miss = runCaptured(cold);
    EXPECT_EQ(miss.simulated, 2u);
    ASSERT_EQ(miss.results.size(), 2u);
    ASSERT_GT(miss.results[0].suspicions, 0u);
    ASSERT_GT(miss.results[1].metaCorruptions, 0u);

    Sweep warm(opts);
    warm.add(suspect, Scheme::pipmFull, *workload);
    warm.add(meta, Scheme::pipmFull, *workload);
    const SweepRun hit = runCaptured(warm);
    EXPECT_EQ(hit.err, "");
    ASSERT_EQ(hit.results.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(fuzz::fingerprintResult(miss.results[i]),
                  fuzz::fingerprintResult(hit.results[i]));
}

} // namespace
