/**
 * @file
 * Unit tests for the common substrate: RNG, zipf sampling, stats,
 * table printing, logging, environment parsing and configuration
 * validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"

namespace pipm
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i)
        seen.insert(rng.range(3, 5));
    EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(13);
    constexpr int buckets = 8;
    constexpr int draws = 80000;
    int counts[buckets] = {};
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(buckets)];
    for (int c : counts) {
        EXPECT_GT(c, draws / buckets * 0.9);
        EXPECT_LT(c, draws / buckets * 1.1);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Zipf, RankZeroIsHottest)
{
    Rng rng(3);
    ZipfSampler zipf(1000, 0.9);
    std::uint64_t rank0 = 0, rank_tail = 0;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t r = zipf.sample(rng);
        ASSERT_LT(r, 1000u);
        if (r == 0)
            ++rank0;
        if (r >= 500)
            ++rank_tail;
    }
    EXPECT_GT(rank0, rank_tail / 4);
    EXPECT_GT(rank0, 1000u);
}

TEST(Zipf, HigherThetaConcentratesMass)
{
    Rng rng_a(5), rng_b(5);
    ZipfSampler mild(10000, 0.4), hot(10000, 0.99);
    std::uint64_t mild_top = 0, hot_top = 0;
    for (int i = 0; i < 50000; ++i) {
        mild_top += mild.sample(rng_a) < 100;
        hot_top += hot.sample(rng_b) < 100;
    }
    EXPECT_GT(hot_top, mild_top * 2);
}

// No other case uses (4099, 0.613), so the first sampler computes its
// normaliser and the second is served from the table.
TEST(Zipf, WarmNormaliserDrawsTheColdSequence)
{
    const ZipfSampler cold(4099, 0.613);
    const ZipfSampler warm(4099, 0.613);
    EXPECT_EQ(ZipfSampler::normaliser(4099, 0.613),
              ZipfSampler::zeta(4099, 0.613));
    Rng rng_cold(17), rng_warm(17);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(cold.sample(rng_cold), warm.sample(rng_warm)) << i;
}

TEST(Zipf, PairsDifferingInOneFieldNeverShareANormaliser)
{
    // Neighbours of a base pair in n or in theta (down to one ulp), on
    // both sides of zeta's 100k exact-sum cutoff.
    const std::vector<std::pair<std::uint64_t, double>> pairs = {
        {5000, 0.7},
        {5001, 0.7},
        {4999, 0.7},
        {5000, 0.71},
        {5000, std::nextafter(0.7, 1.0)},
        {5000, std::nextafter(0.7, 0.0)},
        {200000, 0.7},
        {200001, 0.7},
        {200000, 0.69},
    };
    // Fill the table in one order, read it back in the other: every
    // pair must get its own exact sum.
    for (const auto &[n, theta] : pairs)
        ZipfSampler::normaliser(n, theta);
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
        EXPECT_EQ(ZipfSampler::normaliser(it->first, it->second),
                  ZipfSampler::zeta(it->first, it->second))
            << it->first << ' ' << it->second;
    }
    // The neighbours' sums differ, so a shared entry would show above.
    EXPECT_NE(ZipfSampler::zeta(5000, 0.7), ZipfSampler::zeta(5001, 0.7));
    EXPECT_NE(ZipfSampler::zeta(5000, 0.7), ZipfSampler::zeta(5000, 0.71));
    EXPECT_NE(ZipfSampler::zeta(200000, 0.7),
              ZipfSampler::zeta(200001, 0.7));
}

TEST(Stats, CounterAccumulatesAndResets)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageComputesMean)
{
    Average a;
    a.sample(1.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.count(), 2u);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(25);
    h.sample(1000);   // overflow bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
    EXPECT_NEAR(h.mean(), (5 + 25 + 1000) / 3.0, 1e-9);
}

TEST(Stats, AverageEmptyMeanIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(Stats, HistogramZeroWidthIsClampedToOne)
{
    // Regression: Histogram(0, ...) used to divide by zero on the first
    // sample. The width clamps to 1 and at least one regular bucket is
    // kept in front of the overflow bucket.
    Histogram h(0, 0);
    EXPECT_EQ(h.bucketWidth(), 1u);
    ASSERT_EQ(h.buckets().size(), 2u);
    h.sample(0);
    h.sample(5);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.buckets()[0], 0u);
}

TEST(Stats, DumpPrintsHistogramBucketsAndOverflow)
{
    StatGroup group("grp");
    Histogram h(10, 4);
    group.addHistogram(&h, "lat", "latency");
    h.sample(5);
    h.sample(5);
    h.sample(1000);
    const std::string dump = group.dump();
    EXPECT_NE(dump.find("grp.lat mean="), std::string::npos);
    EXPECT_NE(dump.find("grp.lat[0,9] 2"), std::string::npos);
    EXPECT_NE(dump.find("grp.lat[40+] 1"), std::string::npos);
    EXPECT_NE(dump.find("# overflow"), std::string::npos);
}

TEST(Stats, DumpFormattingIsFixedPrecision)
{
    // Regression: the default stream precision (6 significant digits)
    // rendered large means in scientific notation, and the global locale
    // could group digits — both made dumps non-reproducible. The dump
    // pins classic-locale fixed notation with 6 decimal places.
    StatGroup group("grp");
    Average a;
    group.addAverage(&a, "big", "large mean");
    a.sample(1234567.5);
    const std::string dump = group.dump();
    EXPECT_NE(dump.find("grp.big 1234567.500000 (n=1)"),
              std::string::npos);
    EXPECT_EQ(dump.find("e+"), std::string::npos);
}

TEST(Stats, GroupDumpContainsNamesAndValues)
{
    StatGroup group("grp");
    Counter c;
    c.inc(7);
    group.addCounter(&c, "seven", "a seven");
    const std::string dump = group.dump();
    EXPECT_NE(dump.find("grp.seven 7"), std::string::npos);
    EXPECT_NE(dump.find("a seven"), std::string::npos);
    group.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t("demo");
    t.header({"a", "long_header"});
    t.row({"xxxx", "y"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.234, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.5), "50.0%");
}

TEST(Logging, PanicThrowsUnderTestHook)
{
    ThrowOnErrorScope guard;
    EXPECT_THROW(panic("boom ", 42), SimError);
    EXPECT_THROW(fatal("bad user"), SimError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    ThrowOnErrorScope guard;
    EXPECT_NO_THROW(panic_if(false, "never"));
    EXPECT_THROW(panic_if(true, "always"), SimError);
}

// A scope restores the setting it found, not false: an inner scope ends
// without disarming the outer one.
TEST(Logging, ThrowOnErrorScopeRestoresTheOuterSetting)
{
    EXPECT_FALSE(detail::throwOnError);
    {
        ThrowOnErrorScope outer;
        {
            ThrowOnErrorScope inner;
        }
        EXPECT_THROW(panic("still in the outer scope"), SimError);
    }
    EXPECT_FALSE(detail::throwOnError);
}

TEST(Env, U64RejectsMalformedValues)
{
    ThrowOnErrorScope guard;
    EXPECT_FALSE(parseU64(""));
    EXPECT_EQ(parseU64("18446744073709551615"), ~0ull);
    const char *name = "PIPM_TEST_ENV_U64";
    for (const char *bad : {"20k", "yes", "-1", " 5", "0x10", "1.5",
                            "99999999999999999999"}) {
        EXPECT_FALSE(parseU64(bad)) << bad;
        setenv(name, bad, 1);
        try {
            envU64(name, 7);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const SimError &e) {
            EXPECT_NE(e.message.find(name), std::string::npos) << e.message;
        }
    }
    setenv(name, "20000", 1);
    EXPECT_EQ(envU64(name, 7), 20000u);
    setenv(name, "", 1);
    EXPECT_EQ(envU64(name, 7), 7u);
    unsetenv(name);
    EXPECT_EQ(envU64(name, 7), 7u);
}

/** Give a config field a different value (the key does not validate). */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_same_v<T, CrashRecoveryPolicy>)
        v = v == CrashRecoveryPolicy::stale ? CrashRecoveryPolicy::poison
                                            : CrashRecoveryPolicy::stale;
    else
        v = static_cast<T>(v + 1);
}

TEST(Config, KeyCoversEveryField)
{
    // A field the key drops lets two configs with different results
    // share one bench-cache row, so every row of the field table whose
    // domain is on must move the key, and trackValues must not.
    SystemConfig cfg = testConfig();
    cfg.fault = paperSuspicionFaultConfig(3);
    addPaperMetaFaults(cfg.fault);
    cfg.tlb.enabled = true;
    cfg.link.hasSwitch = true;
    const std::string key = cfg.measurementKey();
    forEachField(cfg, [&](const char *path, auto &v, KeyGate gate) {
        const auto saved = v;
        perturb(v);
        if (gate == KeyGate::never)
            EXPECT_EQ(cfg.measurementKey(), key) << path;
        else
            EXPECT_NE(cfg.measurementKey(), key) << path;
        v = saved;
    });
    EXPECT_EQ(cfg.measurementKey(), key);

    // With faults off, no fault-domain knob may split keys: only the
    // master switch itself changes the run.
    SystemConfig off = testConfig();
    const std::string off_key = off.measurementKey();
    forEachField(off, [&](const char *path, auto &v, KeyGate gate) {
        if (gate == KeyGate::always || std::string(path) == "fault.enabled")
            return;
        const auto saved = v;
        perturb(v);
        EXPECT_EQ(off.measurementKey(), off_key) << path;
        v = saved;
    });
}

TEST(Config, KeyDoublesRoundTrip)
{
    // Six significant digits used to merge these two link error rates.
    SystemConfig a = testConfig();
    a.fault = paperFaultConfig(1);
    SystemConfig b = a;
    a.fault.linkErrorRate = 5e-4;
    b.fault.linkErrorRate = 5.0000001e-4;
    EXPECT_NE(a.measurementKey(), b.measurementKey());
}

TEST(Config, DefaultIsValidAndMatchesTable2)
{
    const SystemConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.numHosts, 4u);
    EXPECT_EQ(cfg.coresPerHost, 4u);
    EXPECT_EQ(cfg.core.robEntries, 224u);
    EXPECT_EQ(cfg.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.llcPerCore.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.pipm.migrationThreshold, 8u);
    const std::string desc = cfg.describe();
    EXPECT_NE(desc.find("4 hosts"), std::string::npos);
    EXPECT_NE(desc.find("224-entry ROB"), std::string::npos);
}

TEST(Config, AddressMapRegions)
{
    const SystemConfig cfg = testConfig();
    EXPECT_EQ(cfg.regionOf(0), AddrRegion::hostLocal);
    EXPECT_EQ(cfg.homeHostOf(0), 0);
    EXPECT_EQ(cfg.homeHostOf(cfg.localBase(1)), 1);
    EXPECT_EQ(cfg.regionOf(cfg.cxlBase()), AddrRegion::cxlPool);
    EXPECT_LT(cfg.cxlBase(), cfg.addressSpaceEnd());
}

TEST(Config, ValidateRejectsBadValues)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.numHosts = 0;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = testConfig();
    // Host IDs are 5 bits (directory sharer masks): 32 hosts max.
    cfg.numHosts = 33;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = testConfig();
    cfg.numHosts = 32;
    EXPECT_NO_THROW(cfg.validate());
    cfg = testConfig();
    cfg.pipm.migrationThreshold = 0;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = testConfig();
    cfg.pipm.migrationThreshold = 64;   // does not fit 6-bit counter
    EXPECT_THROW(cfg.validate(), SimError);
    // A scale that leaves a fraction of a page per host would start the
    // CXL pool mid-page; whole pages at any scale are fine.
    cfg = testConfig();
    cfg.footprintScale = 255;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg.localBytesPerHostFull = 255 * 64 * pageBytes;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ScaledEpochAndCosts)
{
    SystemConfig cfg = defaultConfig();
    // 10 ms at 4 GHz is 40M cycles; divided by timeScale.
    EXPECT_EQ(cfg.osEpochCycles(), nsToCycles(10e6) / cfg.timeScale);
    EXPECT_EQ(cfg.osPageInitiatorCycles(),
              nsToCycles(20e3) / cfg.timeScale);
    EXPECT_GT(cfg.osPageTransferBytes(), 0u);
}

TEST(Config, OsEpochCyclesNeverRoundsToZero)
{
    // Regression: a timeScale larger than the epoch in cycles rounded
    // osEpochCycles() down to 0, turning the OS policy timer into an
    // every-cycle busy loop. The scaled epoch clamps to >= 1.
    SystemConfig cfg = defaultConfig();
    cfg.osMigration.intervalMs = 0.001;   // 4000 cycles at 4 GHz
    cfg.timeScale = 1'000'000;
    EXPECT_EQ(cfg.osEpochCycles(), 1u);
}

TEST(Config, ValidateRejectsNonPositiveEpoch)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    cfg.osMigration.intervalMs = 0.0;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg.osMigration.intervalMs = -5.0;
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(Types, AddressHelpers)
{
    const PhysAddr pa = (5ull << pageShift) + 3 * lineBytes + 7;
    EXPECT_EQ(pageOf(pa), 5u);
    EXPECT_EQ(lineInPage(pa), 3u);
    EXPECT_EQ(pageBase(5), 5ull << pageShift);
    EXPECT_EQ(pageOfLine(lineOf(pa)), 5u);
}

} // namespace
} // namespace pipm
