/**
 * @file
 * Differential-fuzzer regression suite (DESIGN.md §13).
 *
 * Three layers:
 *  - sampler health: every sampled case repairs into a valid config, and
 *    sampling is deterministic in the seed;
 *  - one pinned shrunk configuration per oracle class, exactly the shape
 *    `fuzz_run` prints when a case fails — these pin the equivalence
 *    contracts at configurations the random sampler reached rather than
 *    only at hand-picked defaults;
 *  - a planted-mutation self-test: seed a deliberate scheduler
 *    divergence through the test hook, prove the "sched" oracle catches
 *    it, and prove the minimizer shrinks the reproducer down to at most
 *    two active fault domains.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "fuzz/fuzz.hh"

namespace pipm
{
namespace
{

using fuzz::FuzzCase;

/** Restore the planted-bug hook no matter how the test exits. */
struct SkewGuard
{
    explicit SkewGuard(Cycles skew) { fuzz::hooks().schedExecSkew = skew; }
    ~SkewGuard() { fuzz::hooks().schedExecSkew = 0; }
};

// ---- Sampler health -----------------------------------------------------

TEST(FuzzSampler, EverySampledCaseIsValid)
{
    ThrowOnErrorScope guard;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const FuzzCase c = fuzz::sampleCase(seed);
        std::string why;
        EXPECT_TRUE(fuzz::caseValid(c, &why))
            << "seed " << seed << ": " << why << "\n"
            << fuzz::describeCase(c);
    }
}

TEST(FuzzSampler, SamplingIsDeterministicInTheSeed)
{
    ThrowOnErrorScope guard;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        EXPECT_EQ(fuzz::caseSignature(fuzz::sampleCase(seed)),
                  fuzz::caseSignature(fuzz::sampleCase(seed)))
            << "seed " << seed;
    }
    // ...and different seeds do explore: at least one pair differs.
    EXPECT_NE(fuzz::caseSignature(fuzz::sampleCase(1)),
              fuzz::caseSignature(fuzz::sampleCase(2)));
}

TEST(FuzzSampler, RepairClampsWildCases)
{
    ThrowOnErrorScope guard;
    FuzzCase c = fuzz::defaultCase();
    c.cfg.numHosts = 200;               // > 32-host validate() ceiling
    c.cfg.pipm.migrationThreshold = 0;  // must be >= 1
    c.cfg.fault.enabled = true;
    c.cfg.fault.stallMeanIntervalNs = 40'000.0;  // stalls without lease
    c.cfg.fault.txnRetryLimit = 0;
    c.cfg.fault.txnBackoffBaseNs = 500.0;        // retry/backoff mismatch
    c.measureRefs = 0;
    fuzz::repairCase(c);
    std::string why;
    EXPECT_TRUE(fuzz::caseValid(c, &why)) << why;
    EXPECT_GE(c.measureRefs, 1u);
}

// caseValid applies AddressSpace's own fit rule, which rounds a heap that
// is not a whole number of pages up: a CXL pool of the rounded-down page
// count is too small, and building the system for that case fails.
TEST(FuzzSampler, CaseValidRoundsAPartialHeapPageUp)
{
    ThrowOnErrorScope guard;
    FuzzCase c = fuzz::defaultCase();
    // A scale with a factor of 7 leaves the scaled heap a fraction of a
    // page over; local DRAM is kept a whole number of pages.
    c.cfg.footprintScale = 7 * 256;
    c.cfg.localBytesPerHostFull = 7ull * 256 * 4096 * pageBytes;
    const std::uint64_t shared = fuzz::caseWorkload(c)->sharedBytes();
    ASSERT_NE(shared % pageBytes, 0u);
    c.cfg.cxlPoolBytesFull = shared / pageBytes * pageBytes * 7 * 256;

    std::string why;
    EXPECT_FALSE(fuzz::caseValid(c, &why));
    EXPECT_NE(why.find("does not fit in the CXL pool"), std::string::npos)
        << why;
    EXPECT_THROW(fuzz::runCase(c, fuzz::runConfigFor(c)), SimError);

    c.cfg.cxlPoolBytesFull += pageBytes * 7 * 256;
    EXPECT_TRUE(fuzz::caseValid(c, &why)) << why;
}

// ---- One pinned shrunk configuration per oracle class -------------------
//
// Each case below is the shrunk shape the minimizer converges to for its
// oracle class: the default small case plus only the knobs that matter
// for that contract. EXPECT_TRUE(ok) pins the equivalence; `detail`
// carries the first divergent field on regression.

TEST(FuzzRegressions, SchedOracleCrashLeaseSeed1)
{
    ThrowOnErrorScope guard;
    FuzzCase c = fuzz::defaultCase();
    c.cfg.numHosts = 3;
    c.workload = "canneal";
    c.cfg.fault.enabled = true;
    c.cfg.fault.crashMeanIntervalNs = 60'000.0;
    c.cfg.fault.crashRejoinNs = 30'000.0;
    c.cfg.fault.leaseNs = 80'000.0;
    fuzz::repairCase(c);
    ASSERT_TRUE(fuzz::caseValid(c));
    const auto r = fuzz::coreOracle("sched").check(c);
    EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FuzzRegressions, FaultZeroOracleAllDomainsAtZeroRate)
{
    ThrowOnErrorScope guard;
    FuzzCase c = fuzz::defaultCase();
    c.cfg.numHosts = 2;
    c.workload = "tpcc";
    c.scheme = Scheme::pipmFull;
    fuzz::repairCase(c);
    ASSERT_TRUE(fuzz::caseValid(c));
    const auto r = fuzz::coreOracle("faultzero").check(c);
    EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FuzzRegressions, ValuesOracleFaultFreePipm)
{
    // Fault-free, so the value plane really is off in the first run.
    ThrowOnErrorScope guard;
    FuzzCase c = fuzz::defaultCase();
    c.workload = "ycsb";
    c.scheme = Scheme::pipmFull;
    fuzz::repairCase(c);
    ASSERT_TRUE(fuzz::caseValid(c));
    ASSERT_FALSE(c.cfg.fault.enabled);
    const auto r = fuzz::coreOracle("values").check(c);
    EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FuzzRegressions, UnknownOracleErrorNamesEveryOracle)
{
    ThrowOnErrorScope guard;
    try {
        fuzz::coreOracle("no-such-oracle");
        ADD_FAILURE() << "an unknown oracle name was accepted";
    } catch (const SimError &e) {
        for (const fuzz::Oracle &o : fuzz::coreOracles())
            EXPECT_NE(e.message.find(o.name), std::string::npos) << o.name;
    }
}

TEST(FuzzRegressions, InvariantsOracleMetaCorruptionSeed7)
{
    ThrowOnErrorScope guard;
    FuzzCase c = fuzz::defaultCase();
    c.cfg.numHosts = 3;
    c.workload = "sssp";
    c.cfg.fault.enabled = true;
    c.cfg.fault.crashMeanIntervalNs = 80'000.0;
    c.cfg.fault.metaCorruptMeanIntervalNs = 40'000.0;
    fuzz::repairCase(c);
    ASSERT_TRUE(fuzz::caseValid(c));
    const auto r = fuzz::coreOracle("invariants").check(c);
    EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FuzzRegressions, StatsJsonOracleLinkFaults)
{
    ThrowOnErrorScope guard;
    FuzzCase c = fuzz::defaultCase();
    c.workload = "ycsb";
    c.cfg.fault.enabled = true;
    c.cfg.fault.linkErrorRate = 1e-4;
    c.cfg.fault.poisonRate = 0.05;
    fuzz::repairCase(c);
    ASSERT_TRUE(fuzz::caseValid(c));
    const auto r = fuzz::coreOracle("statsjson").check(c);
    EXPECT_TRUE(r.ok) << r.detail;
}

// The fifth oracle class ("jobs": bench-cache rows are byte-identical at
// any PIPM_BENCH_JOBS) needs the bench sweep infrastructure and lives in
// bench/fuzz_run.cc; test_bench_sweep.cc covers the same contract at the
// library level.

// ---- Planted-mutation self-test -----------------------------------------

TEST(FuzzSelfTest, PlantedSchedulerSkewIsDetectedAndMinimized)
{
    ThrowOnErrorScope guard;

    // A busy sampled case: several fault domains, so the minimizer has
    // something real to strip. Seeded scheduler divergence: the scan
    // run's execCycles is off by one cycle.
    FuzzCase noisy = fuzz::sampleCase(26);
    noisy.cfg.fault.enabled = true;
    noisy.cfg.fault.linkErrorRate = 1e-4;
    noisy.cfg.fault.crashMeanIntervalNs = 90'000.0;
    noisy.cfg.fault.leaseNs = 80'000.0;
    noisy.cfg.fault.metaCorruptMeanIntervalNs = 60'000.0;
    fuzz::repairCase(noisy);
    ASSERT_TRUE(fuzz::caseValid(noisy));
    ASSERT_GE(noisy.cfg.fault.activeDomains(), 3u);

    const fuzz::Oracle sched = fuzz::coreOracle("sched");
    ASSERT_TRUE(sched.check(noisy).ok)
        << "case must pass before the bug is planted";

    SkewGuard skew(1);
    const auto verdict = sched.check(noisy);
    ASSERT_FALSE(verdict.ok) << "planted skew must be detected";
    EXPECT_NE(verdict.detail.find("exec_cycles"), std::string::npos)
        << verdict.detail;

    const fuzz::MinimizedCase m = fuzz::minimizeCase(noisy, sched);
    EXPECT_FALSE(m.failure.ok);   // still reproduces after shrinking
    EXPECT_GT(m.shrinks, 0u);
    // The skew hits every config, so fault domains are all strippable:
    // the minimizer must get the reproducer down to at most two.
    EXPECT_LE(m.best.cfg.fault.activeDomains(), 2u)
        << fuzz::describeCase(m.best);

    // The reproducer renders to a pasteable regression test.
    const std::string code = fuzz::renderRegressionTest(m.best, "sched", 26);
    EXPECT_NE(code.find("TEST(FuzzRegressions"), std::string::npos);
    EXPECT_NE(code.find("coreOracle(\"sched\")"), std::string::npos);
}

TEST(FuzzSelfTest, HookRestoredOraclePassesAgain)
{
    ThrowOnErrorScope guard;
    ASSERT_EQ(fuzz::hooks().schedExecSkew, 0u);
    FuzzCase c = fuzz::defaultCase();
    fuzz::repairCase(c);
    const auto r = fuzz::coreOracle("sched").check(c);
    EXPECT_TRUE(r.ok) << r.detail;
}

} // namespace
} // namespace pipm
