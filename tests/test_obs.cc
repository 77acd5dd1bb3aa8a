/**
 * @file
 * Tests for the observability layer (DESIGN.md §10): the JSON
 * writer/parser, the ObsTrace ring buffer, MetricsRegistry delta
 * semantics, and the stats.json export — schema validity, byte
 * determinism and the totals-match-RunResult accounting invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "fuzz/fuzz.hh"
#include "obs/json.hh"
#include "obs/metrics_registry.hh"
#include "obs/stats_json.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"
#include "workloads/catalog.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

// ---- JSON writer/parser ------------------------------------------------

TEST(ObsJson, NumberFormattingIsLocaleFree)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(-2.25), "-2.25");
    // Shortest round-trip form, never digit grouping.
    EXPECT_EQ(jsonNumber(1048576.0), "1048576");
}

TEST(ObsJson, QuoteEscapesControlAndSpecials)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
}

TEST(ObsJson, ParseRoundTripsCountersExactly)
{
    // 2^63 + 1 is not representable as a double; asU64 must use the raw
    // source text, not the double value.
    const std::string doc =
        "{\"big\": 9223372036854775809, \"arr\": [1, 2, 3],"
        " \"s\": \"x\", \"t\": true, \"n\": null}";
    const auto v = parseJson(doc);
    ASSERT_TRUE(v);
    EXPECT_EQ(v->find("big")->asU64(), 9223372036854775809ull);
    ASSERT_TRUE(v->find("arr")->isArray());
    EXPECT_EQ(v->find("arr")->arr.size(), 3u);
    EXPECT_EQ(v->find("arr")->arr[1].asU64(), 2u);
    EXPECT_EQ(v->find("s")->raw, "x");
    EXPECT_TRUE(v->find("t")->boolVal);
    EXPECT_TRUE(v->find("n")->isNull());
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(ObsJson, ObjectsPreserveKeyOrder)
{
    const auto v = parseJson("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_TRUE(v);
    ASSERT_EQ(v->obj.size(), 3u);
    EXPECT_EQ(v->obj[0].first, "z");
    EXPECT_EQ(v->obj[1].first, "a");
    EXPECT_EQ(v->obj[2].first, "m");
}

TEST(ObsJson, ParseRejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\": }", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", &err));
    EXPECT_FALSE(parseJson("[1, 2,]", &err));
    EXPECT_FALSE(parseJson("", &err));
    EXPECT_FALSE(parseJson("{\"unterminated", &err));
}

// ---- ObsTrace ring buffer ----------------------------------------------

TEST(ObsTrace, RecordsBelowCapacityInOrder)
{
    ObsTrace t(8);
    for (std::uint32_t i = 0; i < 5; ++i)
        t.record(ObsEventType::promotion, 100 + i, i, 0, i);
    EXPECT_EQ(t.recorded(), 5u);
    EXPECT_EQ(t.dropped(), 0u);
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].cycle, 100 + i);
        EXPECT_EQ(events[i].aux, i);
    }
}

TEST(ObsTrace, WrapKeepsNewestOldestFirst)
{
    ObsTrace t(4);
    for (std::uint32_t i = 0; i < 10; ++i)
        t.record(ObsEventType::revocation, i, i, 1, i);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // The four newest (6..9), oldest first.
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].aux, 6 + i);
}

TEST(ObsTrace, CapacityZeroClampsToOne)
{
    ObsTrace t(0);
    EXPECT_EQ(t.capacity(), 1u);
    t.record(ObsEventType::hostCrash, 1, 0, 2, 7);
    t.record(ObsEventType::hostRejoin, 2, 0, 2, 8);
    EXPECT_EQ(t.recorded(), 2u);
    EXPECT_EQ(t.dropped(), 1u);
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, ObsEventType::hostRejoin);
}

TEST(ObsTrace, WatchedLinesAndReset)
{
    ObsTrace t(4);
    EXPECT_FALSE(t.lineWatched(42));
    t.watchLine(42);
    EXPECT_TRUE(t.lineWatched(42));
    EXPECT_FALSE(t.lineWatched(43));
    t.record(ObsEventType::dirTransition, 5, 42, 0, 0);
    t.reset();
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_TRUE(t.snapshot().empty());
    // Watches survive a reset; only the ring is cleared.
    EXPECT_TRUE(t.lineWatched(42));
}

TEST(ObsTrace, EventTypeNamesAreStable)
{
    EXPECT_EQ(toString(ObsEventType::promotion), "promotion");
    EXPECT_EQ(toString(ObsEventType::lineAbort), "line_abort");
    EXPECT_EQ(toString(ObsEventType::dirTransition), "dir_transition");
    EXPECT_EQ(toString(ObsEventType::hostCrash), "host_crash");
}

// ---- MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistry, IntervalDeltasSumToTotals)
{
    StatGroup grp("g");
    Counter c;
    Average a;
    grp.addCounter(&c, "c", "counter");
    grp.addAverage(&a, "a", "average");

    MetricsRegistry reg;
    reg.addGroup(grp);
    ASSERT_EQ(reg.schema().counters.size(), 1u);
    EXPECT_EQ(reg.schema().counters[0], "g.c");
    EXPECT_EQ(reg.schema().averages[0], "g.a");

    reg.begin();
    c.inc(3);
    a.sample(10.0);
    a.sample(20.0);
    reg.closeInterval(100, 1000);
    c.inc(5);
    reg.closeInterval(200, 2000);

    const auto &ivals = reg.intervals();
    ASSERT_EQ(ivals.size(), 2u);
    EXPECT_EQ(ivals[0].startAccess, 0u);
    EXPECT_EQ(ivals[0].endAccess, 100u);
    EXPECT_EQ(ivals[0].endCycle, 1000u);
    EXPECT_EQ(ivals[0].counterDeltas[0], 3u);
    EXPECT_DOUBLE_EQ(ivals[0].averageMeans[0], 15.0);
    EXPECT_EQ(ivals[1].counterDeltas[0], 5u);
    // No samples in interval 1: its in-interval mean is 0, not the
    // running mean.
    EXPECT_DOUBLE_EQ(ivals[1].averageMeans[0], 0.0);
    EXPECT_EQ(reg.counterTotal("g.c"), c.value());
    EXPECT_EQ(reg.counterTotal("nope"), 0u);
}

TEST(MetricsRegistry, BaselineAbsorbsPreMeasurementCounts)
{
    // The harmful tracker's counters are not reset at the warmup
    // boundary; begin() must snapshot them so interval deltas still sum
    // to the measured-phase increase only.
    StatGroup grp("g");
    Counter c;
    grp.addCounter(&c, "c", "counter");
    c.inc(1000);   // pre-measurement activity

    MetricsRegistry reg;
    reg.addGroup(grp);
    reg.begin();
    c.inc(7);
    reg.closeInterval(10, 10);
    ASSERT_EQ(reg.intervals().size(), 1u);
    EXPECT_EQ(reg.intervals()[0].counterDeltas[0], 7u);
    EXPECT_EQ(reg.counterTotal("g.c"), 7u);
}

TEST(MetricsRegistry, ZeroLengthFlushIsIgnored)
{
    StatGroup grp("g");
    Counter c;
    grp.addCounter(&c, "c", "counter");
    MetricsRegistry reg;
    reg.addGroup(grp);
    reg.begin();
    c.inc();
    reg.closeInterval(50, 500);
    // Final flush landing exactly on the last boundary: no empty
    // duplicate interval.
    reg.closeInterval(50, 500);
    EXPECT_EQ(reg.intervals().size(), 1u);
}

TEST(MetricsRegistry, PrefixDisambiguatesPerHostGroups)
{
    StatGroup link0("link"), link1("link");
    Counter c0, c1;
    link0.addCounter(&c0, "crc_errors", "x");
    link1.addCounter(&c1, "crc_errors", "x");
    MetricsRegistry reg;
    reg.addGroup(link0, "host0.");
    reg.addGroup(link1, "host1.");
    reg.begin();
    c1.inc(9);
    reg.closeInterval(1, 1);
    EXPECT_EQ(reg.counterTotal("host0.link.crc_errors"), 0u);
    EXPECT_EQ(reg.counterTotal("host1.link.crc_errors"), 9u);
}

// ---- stats.json export -------------------------------------------------

RunConfig
obsRun(const std::string &path)
{
    RunConfig run;
    run.warmupRefsPerCore = 1'000;
    run.measureRefsPerCore = 4'000;
    run.footprintSampleEvery = 8'000;
    run.statsJsonPath = path;
    run.obsIntervalAccesses = 3'000;
    run.obsTraceCapacity = 64;
    run.obsWatchLines = "0,4096";
    run.obsFromEnv = false;   // tests must not react to the caller's env
    return run;
}

/** stats.json totals and interval sums equal `r` for every table field. */
void
expectTotalsMatch(const JsonValue &doc, const RunResult &r)
{
    const JsonValue *totals = doc.find("totals");
    ASSERT_TRUE(totals);
    EXPECT_EQ(totals->obj.size(), std::size(runResultFields));
    for (const RunResultField &f : runResultFields) {
        const JsonValue *v = totals->find(f.name);
        ASSERT_TRUE(v) << f.name;
        if (f.u64)
            EXPECT_EQ(v->asU64(), r.*f.u64) << f.name;
        else
            EXPECT_EQ(v->raw, jsonNumber(f.real(r))) << f.name;
    }

    // Interval accounting: counter columns sum to end-of-run totals.
    const JsonValue *intervals = doc.find("intervals");
    ASSERT_TRUE(intervals);
    const JsonValue *counters = intervals->find("counters");
    const JsonValue *samples = intervals->find("samples");
    ASSERT_TRUE(counters && samples);
    for (const RunResultField &f : runResultFields) {
        if (f.kind != RunResultField::counter)
            continue;
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < counters->arr.size(); ++i) {
            if (!f.sums(counters->arr[i].raw))
                continue;
            for (const JsonValue &s : samples->arr)
                sum += s.find("counters")->arr[i].asU64();
        }
        EXPECT_EQ(sum, r.*f.u64) << f.name;
    }
}

TEST(StatsJson, ExportIsSchemaValidAndMatchesRunResult)
{
    const std::string path = testing::TempDir() + "pipm_stats_a.json";
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    const RunResult r =
        runExperiment(cfg, Scheme::pipmFull, *wl, obsRun(path));
    const std::string text = slurp(path);

    const auto errors = validateStatsJson(text);
    for (const auto &e : errors)
        ADD_FAILURE() << e;

    const auto doc = parseJson(text);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("schema_version")->asU64(), 1u);
    const JsonValue *meta = doc->find("meta");
    ASSERT_TRUE(meta);
    EXPECT_EQ(meta->find("workload")->raw, "small");
    EXPECT_EQ(meta->find("scheme")->raw, "pipm");
    EXPECT_EQ(meta->find("seed")->asU64(), 42u);
    EXPECT_EQ(meta->find("interval_accesses")->asU64(), 3000u);

    expectTotalsMatch(*doc, r);
    EXPECT_GE(doc->find("intervals")->find("samples")->arr.size(), 2u);

    // Tracing was on: the section exists and is internally consistent.
    const JsonValue *trace = doc->find("trace");
    ASSERT_TRUE(trace);
    EXPECT_EQ(trace->find("capacity")->asU64(), 64u);
    EXPECT_EQ(trace->find("events")->arr.size(),
              std::min<std::uint64_t>(64u,
                                      trace->find("recorded")->asU64()));
    std::remove(path.c_str());
}

// PIPM_OBS_WATCH: every comma-separated item is a whole decimal or
// 0x-hex line address, or the run is fatal; a malformed item must not
// end the list and drop the items after it.
TEST(ObsWatch, EveryItemParsesWholeOrTheRunFails)
{
    EXPECT_TRUE(parseWatchLines("").empty());
    EXPECT_EQ(parseWatchLines("12"), std::vector<PhysAddr>{12});
    EXPECT_EQ(parseWatchLines("0,4096,0x40,0XfF"),
              (std::vector<PhysAddr>{0, 4096, 64, 255}));

    ThrowOnErrorScope scope;
    for (const char *bad : {"12x,34", "12,34x", "12,,34", "12,", ",12",
                            "0x", "-1", " 12", "12 ", "0x-1",
                            "99999999999999999999"}) {
        EXPECT_THROW(parseWatchLines(bad), SimError) << "'" << bad << "'";
    }
    const std::string path = testing::TempDir() + "pipm_stats_watch.json";
    RunConfig run = obsRun(path);
    run.obsWatchLines = "12x,34";
    auto wl = smallWorkload();
    EXPECT_THROW(runExperiment(smallSystem(), Scheme::pipmFull, *wl, run),
                 SimError);
    std::remove(path.c_str());
}

TEST(StatsJson, TotalsCarryTheSuspicionAndMetadataCounters)
{
    // The §11 and §12 fault-domain counters reach the totals too.
    const std::string path = testing::TempDir() + "pipm_stats_faults.json";
    SystemConfig suspect = smallSystem();
    suspect.fault = paperSuspicionFaultConfig(42);
    SystemConfig meta = smallSystem();
    meta.fault = paperMetaFaultConfig(42);
    auto wl = smallWorkload();
    const std::pair<SystemConfig, std::uint64_t RunResult::*> cases[] = {
        {suspect, &RunResult::suspicions},
        {meta, &RunResult::metaCorruptions},
    };
    for (const auto &[cfg, counter] : cases) {
        const RunResult r =
            runExperiment(cfg, Scheme::pipmFull, *wl, obsRun(path));
        ASSERT_GT(r.*counter, 0u);
        const std::string text = slurp(path);
        for (const auto &e : validateStatsJson(text))
            ADD_FAILURE() << e;
        const auto doc = parseJson(text);
        ASSERT_TRUE(doc);
        expectTotalsMatch(*doc, r);
    }
    std::remove(path.c_str());
}

TEST(StatsJson, SameSeedIsByteIdentical)
{
    const std::string pa = testing::TempDir() + "pipm_stats_b1.json";
    const std::string pb = testing::TempDir() + "pipm_stats_b2.json";
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    runExperiment(cfg, Scheme::pipmFull, *wl, obsRun(pa));
    runExperiment(cfg, Scheme::pipmFull, *wl, obsRun(pb));
    EXPECT_EQ(slurp(pa), slurp(pb));
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(StatsJson, ValueTrackingChangesNoResultAndNoByte)
{
    // Values never influence timing (DESIGN.md §9): on the benchmark's
    // two fault-free workloads, every scheme gives the same RunResult
    // and the same stats.json bytes with the value plane off and on.
    const std::string off_path =
        testing::TempDir() + "pipm_stats_values_off.json";
    const std::string on_path =
        testing::TempDir() + "pipm_stats_values_on.json";
    const SystemConfig off = defaultConfig();
    SystemConfig on = off;
    on.trackValues = true;
    for (const char *name : {"pr", "ycsb"}) {
        const auto wl = workloadByName(name, off.footprintScale);
        for (Scheme s : allSchemes) {
            RunConfig run = obsRun(off_path);
            run.warmupRefsPerCore = 500;
            run.measureRefsPerCore = 2'000;
            run.obsIntervalAccesses = 8'000;
            const RunResult roff = runExperiment(off, s, *wl, run);
            run.statsJsonPath = on_path;
            const RunResult ron = runExperiment(on, s, *wl, run);
            EXPECT_EQ(fuzz::fingerprintResult(roff),
                      fuzz::fingerprintResult(ron))
                << name << ' ' << toString(s);
            EXPECT_EQ(slurp(off_path), slurp(on_path))
                << name << ' ' << toString(s);
        }
    }
    std::remove(off_path.c_str());
    std::remove(on_path.c_str());
}

TEST(StatsJson, SchemesWithoutPipmValidateToo)
{
    const std::string path = testing::TempDir() + "pipm_stats_c.json";
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    RunConfig run = obsRun(path);
    run.obsTraceCapacity = 0;   // no trace section
    runExperiment(cfg, Scheme::native, *wl, run);
    const std::string text = slurp(path);
    const auto errors = validateStatsJson(text);
    for (const auto &e : errors)
        ADD_FAILURE() << e;
    const auto doc = parseJson(text);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("trace"), nullptr);
    std::remove(path.c_str());
}

TEST(StatsJson, ValidatorRejectsBrokenDocuments)
{
    EXPECT_FALSE(validateStatsJson("not json").empty());
    EXPECT_FALSE(validateStatsJson("{}").empty());
    EXPECT_FALSE(
        validateStatsJson("{\"schema_version\": 2}").empty());

    // A structurally complete document whose accounting lies: one
    // counter delta was tampered with, so the column no longer sums to
    // the total.
    const std::string path = testing::TempDir() + "pipm_stats_d.json";
    const SystemConfig cfg = smallSystem();
    auto wl = smallWorkload();
    RunConfig run = obsRun(path);
    run.obsTraceCapacity = 0;
    runExperiment(cfg, Scheme::pipmFull, *wl, run);
    std::string text = slurp(path);
    ASSERT_TRUE(validateStatsJson(text).empty());
    // Bump the first digit of totals.shared_accesses so the interval
    // column no longer sums to it. The quoted key with a colon only
    // occurs in the totals object (the interval schema names it
    // "system.shared_accesses").
    const auto pos = text.find("\"shared_accesses\": ");
    ASSERT_NE(pos, std::string::npos);
    const auto dpos = pos + std::string("\"shared_accesses\": ").size();
    text[dpos] = text[dpos] == '9' ? '8' : text[dpos] + 1;
    EXPECT_FALSE(validateStatsJson(text).empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace pipm
