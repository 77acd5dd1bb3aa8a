/**
 * @file
 * Tests for PIPMT trace-backed workloads (workloads/trace_file):
 * snapshot round-trip equality with the generating workload, stream
 * looping, geometry/metadata error handling, and fingerprint
 * content-addressing. The format layer itself (writer/reader/recorder/
 * generators) is covered by test_trace.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "common/logging.hh"
#include "workloads/catalog.hh"
#include "workloads/trace_file.hh"

namespace pipm
{
namespace
{

class TraceFileTest : public ::testing::Test
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
               ("pipm_trace_test_dir." + std::string(info->test_suite_name()) + "." +
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

TEST_F(TraceFileTest, SnapshotReplaysIdentically)
{
    auto workload = workloadByName("ycsb", 256);
    snapshotTrace(*workload, path("ycsb.pipmt"), 500, 2, 2, 99);

    TraceFileWorkload replay(path("ycsb.pipmt"));
    EXPECT_EQ(replay.name(), "ycsb");
    EXPECT_EQ(replay.suite(), "trace");
    EXPECT_EQ(replay.sharedBytes(), workload->sharedBytes());
    EXPECT_EQ(replay.privateBytesPerHost(),
              workload->privateBytesPerHost());
    EXPECT_EQ(replay.recordedHosts(), 2u);
    EXPECT_EQ(replay.recordedCoresPerHost(), 2u);
    EXPECT_EQ(replay.refsIn(1, 0), 500u);
    EXPECT_EQ(replay.totalRefs(), 4 * 500u);

    // The replayed stream equals the original generator's stream
    // (snapshotTrace uses the runner's per-core seed derivation).
    auto original = workload->makeTrace(1, 0, 2, 2, 99 + 7919 * 64);
    auto from_file = replay.makeTrace(1, 0, 2, 2, 0);
    for (int i = 0; i < 500; ++i) {
        const MemRef a = original->next();
        const MemRef b = from_file->next();
        ASSERT_EQ(a.page, b.page) << "ref " << i;
        ASSERT_EQ(a.lineIdx, b.lineIdx) << "ref " << i;
        ASSERT_EQ(static_cast<int>(a.op), static_cast<int>(b.op))
            << "ref " << i;
        ASSERT_EQ(a.gap, b.gap) << "ref " << i;
        ASSERT_EQ(a.shared, b.shared) << "ref " << i;
    }
}

TEST_F(TraceFileTest, FingerprintIsContentAddressed)
{
    auto workload = workloadByName("ycsb", 256);
    snapshotTrace(*workload, path("a.pipmt"), 100, 1, 1, 5);
    snapshotTrace(*workload, path("b.pipmt"), 100, 1, 1, 5);
    snapshotTrace(*workload, path("c.pipmt"), 100, 1, 1, 6);

    TraceFileWorkload a(path("a.pipmt"));
    TraceFileWorkload b(path("b.pipmt"));
    TraceFileWorkload c(path("c.pipmt"));
    // Same snapshot parameters -> same payload -> same fingerprint;
    // a different seed changes the payload and must change it. Replay
    // must never alias the synthetic source in the bench cache.
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint(), c.fingerprint());
    EXPECT_NE(a.fingerprint(), workload->fingerprint());
}

TEST_F(TraceFileTest, StreamsLoopAtTheEnd)
{
    auto workload = workloadByName("ycsb", 256);
    snapshotTrace(*workload, path("loop.pipmt"), 100, 1, 1, 5);
    TraceFileWorkload replay(path("loop.pipmt"));
    auto trace = replay.makeTrace(0, 0, 1, 1, 0);
    auto *file_trace = dynamic_cast<FileTrace *>(trace.get());
    ASSERT_NE(file_trace, nullptr);
    const MemRef first = file_trace->next();
    for (int i = 1; i < 100; ++i)
        file_trace->next();
    const MemRef wrapped = file_trace->next();
    EXPECT_EQ(file_trace->wraps(), 1u);
    EXPECT_EQ(first.page, wrapped.page);
    EXPECT_EQ(first.gap, wrapped.gap);
}

TEST_F(TraceFileTest, RejectsOversubscribedGeometry)
{
    auto workload = workloadByName("ycsb", 256);
    snapshotTrace(*workload, path("small.pipmt"), 50, 1, 1, 5);
    TraceFileWorkload replay(path("small.pipmt"));
    ThrowOnErrorScope guard;
    EXPECT_THROW(replay.makeTrace(1, 0, 1, 2, 0), SimError);
    EXPECT_THROW(replay.makeTrace(0, 1, 2, 1, 0), SimError);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    ThrowOnErrorScope guard;
    EXPECT_THROW(TraceFileWorkload(path("nope.pipmt")), SimError);
}

TEST_F(TraceFileTest, TruncatedFileIsFatal)
{
    {
        std::FILE *f = std::fopen(path("trunc.pipmt").c_str(), "wb");
        const char bytes[5] = {1, 2, 3, 4, 5};
        std::fwrite(bytes, 1, 5, f);
        std::fclose(f);
    }
    ThrowOnErrorScope guard;
    EXPECT_THROW(TraceFileWorkload(path("trunc.pipmt")), SimError);
}

TEST_F(TraceFileTest, EmptyStreamListIsFatal)
{
    ThrowOnErrorScope guard;
    auto workload = workloadByName("ycsb", 256);
    EXPECT_THROW(
        snapshotTrace(*workload, path("zero.pipmt"), 0, 1, 1, 5),
        SimError);
}

} // namespace
} // namespace pipm
