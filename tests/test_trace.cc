/**
 * @file
 * Tests for the trace subsystem (src/trace, DESIGN.md §14): varint
 * codec edges, PIPMT writer/reader round-trips over randomized
 * streams, adversarial-input rejection (truncation, garbage headers,
 * checksum flips), generator determinism, merge interleaving, and the
 * headline contract — recording a live run with TraceRecorder and
 * replaying the trace reproduces the RunResult (and stats.json)
 * byte-for-byte, including under fault injection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/varint.hh"
#include "fuzz/fuzz.hh"
#include "sim/runner.hh"
#include "trace/recorder.hh"
#include "trace/trace.hh"
#include "trace/trace_gen.hh"
#include "workloads/catalog.hh"
#include "workloads/trace_file.hh"
#include "test_support.hh"

namespace pipm
{
namespace
{

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per test and process: ctest runs every case as
        // its own process, so a shared name would race under -j.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("pipm_trace_subsystem_test." + std::string(info->test_suite_name()) + "." +
                info->name() + "." + std::to_string(getpid()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    path(const char *name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

std::vector<std::uint8_t>
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
spitBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

// ---- Varint / zigzag codec ------------------------------------------

TEST(Varint, RoundTripsEdgeValues)
{
    const std::uint64_t values[] = {
        0,   1,   127,  128,        129,
        300, 16383, 16384, 1ull << 32, (1ull << 63) - 1,
        1ull << 63, ~0ull};
    for (std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        ASSERT_LE(buf.size(), maxVarintBytes);
        std::uint64_t out = 0;
        const std::size_t used =
            getVarint(buf.data(), buf.data() + buf.size(), out);
        EXPECT_EQ(used, buf.size()) << v;
        EXPECT_EQ(out, v);
    }
}

TEST(Varint, RejectsTruncation)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, ~0ull);
    std::uint64_t out = 0;
    for (std::size_t keep = 0; keep < buf.size(); ++keep)
        EXPECT_EQ(getVarint(buf.data(), buf.data() + keep, out), 0u)
            << keep;
}

TEST(Varint, RejectsOverlongTenthByte)
{
    // Ten continuation-flagged bytes: the tenth may only carry the top
    // bit of the 64-bit value.
    std::vector<std::uint8_t> buf(9, 0x80);
    buf.push_back(0x02);
    std::uint64_t out = 0;
    EXPECT_EQ(getVarint(buf.data(), buf.data() + buf.size(), out), 0u);
}

TEST(Varint, ZigzagRoundTripsExtremes)
{
    const std::int64_t values[] = {0,  1,  -1, 2, -2, 1ll << 40,
                                   -(1ll << 40),
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
    for (std::int64_t v : values)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
    // Small magnitudes must encode small (the delta-compression win).
    EXPECT_LE(zigzagEncode(-1), 2u);
    EXPECT_LE(zigzagEncode(1), 2u);
}

// ---- Writer/reader round-trip ---------------------------------------

TraceMeta
smallMeta(unsigned hosts, unsigned cores)
{
    TraceMeta meta;
    meta.name = "unit";
    meta.sourceFingerprint = "unit;test";
    meta.numHosts = hosts;
    meta.coresPerHost = cores;
    meta.sharedBytes = 1024 * pageBytes;
    meta.privateBytesPerHost = 32 * pageBytes;
    meta.footprintBytes =
        meta.sharedBytes + hosts * meta.privateBytesPerHost;
    return meta;
}

std::vector<MemRef>
randomStream(Rng &rng, std::uint64_t n, std::uint64_t shared_pages,
             std::uint64_t private_pages)
{
    std::vector<MemRef> refs;
    refs.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        MemRef r;
        r.shared = rng.chance(0.8);
        r.page = r.shared ? rng.below(shared_pages)
                          : rng.below(private_pages);
        r.lineIdx = static_cast<std::uint8_t>(rng.below(linesPerPage));
        r.op = rng.chance(0.3) ? MemOp::write : MemOp::read;
        r.gap = static_cast<std::uint16_t>(rng.below(65536));
        refs.push_back(r);
    }
    return refs;
}

TEST_F(TraceTest, RoundTripsRandomizedStreams)
{
    const TraceMeta meta = smallMeta(3, 2);
    TraceWriter out(meta);
    Rng rng(2026);
    std::vector<std::vector<MemRef>> streams;
    for (unsigned s = 0; s < meta.streamCount(); ++s) {
        streams.push_back(randomStream(rng, 200 + 37 * s, 1024, 32));
        for (const MemRef &r : streams.back())
            out.append(s, r);
    }
    out.writeTo(path("random.pipmt"));

    TraceReader in(path("random.pipmt"));
    EXPECT_EQ(in.meta().name, "unit");
    EXPECT_EQ(in.meta().sourceFingerprint, "unit;test");
    EXPECT_EQ(in.meta().numHosts, 3u);
    EXPECT_EQ(in.meta().coresPerHost, 2u);
    EXPECT_EQ(in.meta().sharedBytes, meta.sharedBytes);
    for (unsigned s = 0; s < meta.streamCount(); ++s) {
        const auto decoded = in.decodeStream(s);
        ASSERT_EQ(decoded.size(), streams[s].size()) << "stream " << s;
        for (std::size_t i = 0; i < decoded.size(); ++i) {
            ASSERT_EQ(decoded[i].page, streams[s][i].page)
                << "stream " << s << " ref " << i;
            ASSERT_EQ(decoded[i].lineIdx, streams[s][i].lineIdx);
            ASSERT_EQ(decoded[i].shared, streams[s][i].shared);
            ASSERT_EQ(static_cast<int>(decoded[i].op),
                      static_cast<int>(streams[s][i].op));
            ASSERT_EQ(decoded[i].gap, streams[s][i].gap);
        }
    }
}

TEST_F(TraceTest, WritesAreByteDeterministic)
{
    for (const char *name : {"a.pipmt", "b.pipmt"}) {
        TraceWriter out(smallMeta(2, 1));
        Rng rng(7);
        for (const MemRef &r : randomStream(rng, 500, 1024, 32))
            out.append(0, r);
        rng = Rng(8);
        for (const MemRef &r : randomStream(rng, 500, 1024, 32))
            out.append(1, r);
        out.writeTo(path(name));
    }
    EXPECT_EQ(slurpBytes(path("a.pipmt")), slurpBytes(path("b.pipmt")));
}

// ---- Adversarial inputs ---------------------------------------------

TEST_F(TraceTest, RejectsGarbageHeader)
{
    ThrowOnErrorScope guard;
    spitBytes(path("garbage.pipmt"),
              {'G', 'A', 'R', 'B', 'A', 'G', 'E', '!', 0, 1, 2, 3});
    EXPECT_THROW(TraceReader(path("garbage.pipmt")), SimError);

    // Right magic, unsupported version.
    spitBytes(path("badver.pipmt"),
              {'P', 'I', 'P', 'M', 'T', 99, 0, 0, 0, 0, 0});
    EXPECT_THROW(TraceReader(path("badver.pipmt")), SimError);

    spitBytes(path("empty.pipmt"), {});
    EXPECT_THROW(TraceReader(path("empty.pipmt")), SimError);
}

TEST_F(TraceTest, RejectsTruncationAtEveryPrefix)
{
    {
        TraceWriter out(smallMeta(1, 1));
        Rng rng(3);
        for (const MemRef &r : randomStream(rng, 64, 1024, 32))
            out.append(0, r);
        out.writeTo(path("whole.pipmt"));
    }
    const auto whole = slurpBytes(path("whole.pipmt"));
    ThrowOnErrorScope guard;
    // Every proper prefix must be rejected (truncated header, stream
    // table, or payload — the trailing-bytes and checksum checks close
    // the gaps the varint decoder alone would not notice).
    for (std::size_t keep = 0; keep < whole.size();
         keep += std::max<std::size_t>(1, whole.size() / 37)) {
        spitBytes(path("prefix.pipmt"),
                  {whole.begin(), whole.begin() + keep});
        EXPECT_THROW(TraceReader(path("prefix.pipmt")), SimError)
            << "prefix " << keep << "/" << whole.size();
    }
}

TEST_F(TraceTest, RejectsPayloadCorruption)
{
    {
        TraceWriter out(smallMeta(1, 1));
        Rng rng(11);
        for (const MemRef &r : randomStream(rng, 256, 1024, 32))
            out.append(0, r);
        out.writeTo(path("clean.pipmt"));
    }
    auto bytes = slurpBytes(path("clean.pipmt"));
    bytes.back() ^= 0x40;  // flip payload bits -> checksum mismatch
    spitBytes(path("flipped.pipmt"), bytes);
    ThrowOnErrorScope guard;
    EXPECT_THROW(TraceReader(path("flipped.pipmt")), SimError);
}

TEST_F(TraceTest, RejectsTrailingGarbage)
{
    {
        TraceWriter out(smallMeta(1, 1));
        Rng rng(13);
        for (const MemRef &r : randomStream(rng, 64, 1024, 32))
            out.append(0, r);
        out.writeTo(path("clean.pipmt"));
    }
    auto bytes = slurpBytes(path("clean.pipmt"));
    bytes.push_back(0x00);
    spitBytes(path("tail.pipmt"), bytes);
    ThrowOnErrorScope guard;
    EXPECT_THROW(TraceReader(path("tail.pipmt")), SimError);
}

// ---- Generators ------------------------------------------------------

TEST_F(TraceTest, GeneratorsAreDeterministicAndReplayable)
{
    for (const std::string &model : genModels()) {
        GenSpec spec;
        spec.model = model;
        spec.numHosts = 2;
        spec.coresPerHost = 1;
        spec.refsPerStream = 400;
        spec.sharedPages = 256;
        spec.seed = 17;
        generateTrace(spec).writeTo(path("gen1.pipmt"));
        generateTrace(spec).writeTo(path("gen2.pipmt"));
        EXPECT_EQ(slurpBytes(path("gen1.pipmt")),
                  slurpBytes(path("gen2.pipmt")))
            << model;

        TraceFileWorkload replay(path("gen1.pipmt"));
        EXPECT_EQ(replay.name(), "gen:" + model);
        EXPECT_EQ(replay.totalRefs(), 2 * 400u);
        auto trace = replay.makeTrace(0, 0, 1, 2, 0);
        for (int i = 0; i < 400; ++i) {
            const MemRef r = trace->next();
            if (r.shared) {
                ASSERT_LT(r.page, 256u) << model;
            }
            ASSERT_LT(r.lineIdx, linesPerPage) << model;
        }

        GenSpec other = spec;
        other.seed = 18;
        generateTrace(other).writeTo(path("gen3.pipmt"));
        EXPECT_NE(slurpBytes(path("gen1.pipmt")),
                  slurpBytes(path("gen3.pipmt")))
            << model;
    }
}

TEST_F(TraceTest, GeneratorRejectsUnknownModel)
{
    ThrowOnErrorScope guard;
    GenSpec spec;
    spec.model = "nosuch";
    EXPECT_THROW(generateTrace(spec), SimError);
}

// ---- Merge -----------------------------------------------------------

TEST_F(TraceTest, MergeInterleavesDeterministically)
{
    GenSpec a;
    a.model = "hotdrift";
    a.numHosts = 2;
    a.coresPerHost = 1;
    a.refsPerStream = 100;
    a.sharedPages = 128;
    a.seed = 1;
    GenSpec b = a;
    b.model = "handoff";
    b.seed = 2;
    generateTrace(a).writeTo(path("a.pipmt"));
    generateTrace(b).writeTo(path("b.pipmt"));

    mergeTraces({path("a.pipmt"), path("b.pipmt")})
        .writeTo(path("m1.pipmt"));
    mergeTraces({path("a.pipmt"), path("b.pipmt")})
        .writeTo(path("m2.pipmt"));
    EXPECT_EQ(slurpBytes(path("m1.pipmt")), slurpBytes(path("m2.pipmt")));

    TraceReader merged(path("m1.pipmt"));
    EXPECT_EQ(merged.totalRecords(), 2 * 2 * 100u);
    // Round-robin: stream 0 starts with a's first ref, then b's.
    const auto s0 = merged.decodeStream(0);
    const auto a0 = TraceReader(path("a.pipmt")).decodeStream(0);
    const auto b0 = TraceReader(path("b.pipmt")).decodeStream(0);
    ASSERT_EQ(s0.size(), a0.size() + b0.size());
    EXPECT_EQ(s0[0].page, a0[0].page);
    EXPECT_EQ(s0[1].page, b0[0].page);
    EXPECT_EQ(s0[2].page, a0[1].page);

    // Merged order is input order: swapping inputs changes the bytes.
    mergeTraces({path("b.pipmt"), path("a.pipmt")})
        .writeTo(path("m3.pipmt"));
    EXPECT_NE(slurpBytes(path("m1.pipmt")), slurpBytes(path("m3.pipmt")));
}

TEST_F(TraceTest, MergeRejectsGeometryMismatch)
{
    GenSpec a;
    a.numHosts = 2;
    a.coresPerHost = 1;
    a.refsPerStream = 10;
    a.sharedPages = 64;
    GenSpec b = a;
    b.coresPerHost = 2;
    generateTrace(a).writeTo(path("a.pipmt"));
    generateTrace(b).writeTo(path("b.pipmt"));
    ThrowOnErrorScope guard;
    EXPECT_THROW(mergeTraces({path("a.pipmt"), path("b.pipmt")}),
                 SimError);
}

// ---- Record -> replay identity --------------------------------------

/** Run `workload` recording the consumed streams, then replay the
 *  trace and require bit-identical results (and stats.json when
 *  `with_stats`). */
void
expectReplayIdentity(const SystemConfig &cfg, const RunConfig &run,
                     const std::string &stats_dir, bool with_stats)
{
    const auto source = workloadByName("ycsb", 256);
    const std::string trace_path = stats_dir + "/run.pipmt";

    TraceRecorder recorder(*source, cfg.numHosts, cfg.coresPerHost);
    RunConfig rec_run = run;
    rec_run.obsFromEnv = false;
    if (with_stats)
        rec_run.statsJsonPath = stats_dir + "/record.json";
    const RunResult recorded =
        runExperiment(cfg, Scheme::pipmFull, recorder, rec_run);
    ASSERT_GT(recorder.recordedRefs(), 0u);
    recorder.writeTo(trace_path);

    TraceFileWorkload replay(trace_path);
    RunConfig rep_run = run;
    rep_run.obsFromEnv = false;
    if (with_stats)
        rep_run.statsJsonPath = stats_dir + "/replay.json";
    const RunResult replayed =
        runExperiment(cfg, Scheme::pipmFull, replay, rep_run);

    EXPECT_EQ(fuzz::fingerprintResult(recorded),
              fuzz::fingerprintResult(replayed));
    EXPECT_EQ(recorded.workload, replayed.workload);
    if (with_stats) {
        EXPECT_EQ(slurp(stats_dir + "/record.json"),
                  slurp(stats_dir + "/replay.json"));
    }
}

TEST_F(TraceTest, RecordedRunReplaysBitIdentically)
{
    for (const std::uint64_t seed : {7ull, 42ull, 1234ull}) {
        SystemConfig cfg = testConfig();
        cfg.numHosts = 2;
        RunConfig run;
        run.warmupRefsPerCore = 200;
        run.measureRefsPerCore = 1'500;
        run.seed = seed;
        expectReplayIdentity(cfg, run, dir_.string(),
                             /*with_stats=*/seed == 42);
    }
}

TEST_F(TraceTest, FaultEnabledRunReplaysBitIdentically)
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 3;
    cfg.fault.enabled = true;
    cfg.fault.seed = 9;
    cfg.fault.linkErrorRate = 0.05;
    cfg.fault.poisonRate = 0.01;
    cfg.fault.migrationAbortRate = 0.1;
    cfg.fault.crashMeanIntervalNs = 40'000.0;
    cfg.fault.crashRejoinNs = 10'000.0;
    cfg.fault.crashMaxEvents = 2;
    RunConfig run;
    run.warmupRefsPerCore = 200;
    run.measureRefsPerCore = 2'000;
    run.seed = 5;
    expectReplayIdentity(cfg, run, dir_.string(), /*with_stats=*/true);
}

TEST_F(TraceTest, RecorderRefusesSecondRun)
{
    const auto source = workloadByName("ycsb", 256);
    TraceRecorder recorder(*source, 1, 1);
    auto t = recorder.makeTrace(0, 0, 1, 1, 42);
    ThrowOnErrorScope guard;
    EXPECT_THROW(recorder.makeTrace(0, 0, 1, 1, 42), SimError);
}

// ---- validate() geometry hardening (pow2 set counts) ----------------

TEST(ConfigGeometry, RejectsNonPow2SetCounts)
{
    ThrowOnErrorScope guard;
    {
        SystemConfig cfg = testConfig();
        cfg.l1.sizeBytes = 3 * 4096;  // 12 KB / (64 B * ways) sets
        EXPECT_THROW(cfg.validate(), SimError);
    }
    {
        SystemConfig cfg = testConfig();
        cfg.llcPerCore.sizeBytes = 3 * (64 << 10);
        EXPECT_THROW(cfg.validate(), SimError);
    }
    {
        SystemConfig cfg = testConfig();
        cfg.deviceDirectory.slices = 3;
        cfg.deviceDirectory.sets = 6;
        EXPECT_THROW(cfg.validate(), SimError);
    }
    // The unmodified test geometry stays valid.
    testConfig().validate();
}

} // namespace
} // namespace pipm
