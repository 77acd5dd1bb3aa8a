/**
 * @file
 * Golden results: every scheme, under every fault mode, on two Table 1
 * workloads, at short run lengths, must reproduce pinned digests of its
 * integer RunResult fields; so must every scheme on pr at the full
 * Table 2 scale with faults off. A refactor that moves any simulated
 * number — a cycle, a counter, a fault-path tally — fails here.
 *
 * Each digest is FNV-1a over the little-endian bytes of every
 * runResultFields row with a u64 member, in table order. Only integers
 * enter the digest, so it does not depend on the compiler's floating-
 * point formatting. When a change moves results on purpose (a bug fix),
 * the failure message prints the new digest to pin.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/runner.hh"
#include "workloads/catalog.hh"

namespace pipm
{
namespace
{

std::uint64_t
digestOf(const RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const RunResultField &f : runResultFields) {
        if (!f.u64)
            continue;
        const std::uint64_t v = r.*f.u64;
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

struct FaultMode
{
    const char *name;
    /** Configure the mode's fault schedule (nothing: faults off). */
    void (*apply)(FaultConfig &);
    /** The mode's own counter total; must be non-zero in every run. */
    std::uint64_t (*ownCount)(const RunResult &);
};

const FaultMode faultModes[] = {
    {"off", [](FaultConfig &) {},
     [](const RunResult &) -> std::uint64_t { return 1; }},
    {"paper", [](FaultConfig &f) { f = paperFaultConfig(7); },
     [](const RunResult &r) { return r.linkCrcErrors; }},
    // Crashes and rejoins denser than the bench default, so every scheme
    // crashes at least once within the short run.
    {"crash",
     [](FaultConfig &f) { f = paperCrashFaultConfig(7, 100'000, 50'000); },
     [](const RunResult &r) { return r.hostCrashes; }},
    // Real crashes sparser than the bench default: most suspicions come
    // from gray-failure stalls, and each crash and rejoin pays a full
    // invariant check.
    {"suspect",
     [](FaultConfig &f) {
         f = paperSuspicionFaultConfig(7);
         f.crashMeanIntervalNs = 300'000;
         f.crashRejoinNs = 50'000;
     },
     [](const RunResult &r) { return r.suspicions; }},
    {"meta", [](FaultConfig &f) { f = paperMetaFaultConfig(7); },
     [](const RunResult &r) {
         return r.metaCorruptions + r.metaCorruptSkipped;
     }},
};

/** The system size, run lengths and seed a case runs at. */
struct Shape
{
    /** Appended to the case's key and test name ("": the short runs). */
    const char *name;
    /** Resize the Table 2 system (nothing: Table 2 as it stands). */
    void (*apply)(SystemConfig &);
    std::uint64_t warmupRefs;
    std::uint64_t measureRefs;
    std::uint64_t seed;
};

// Table 2 at a smaller footprint scale, with a CXL pool that still
// holds pr's heap: long enough runs for PIPM promotions and OS epochs
// to fire, cheap enough invariant checks at every crash.
const Shape shortRuns = {"",
                         [](SystemConfig &cfg) {
                             cfg.footprintScale = 4096;
                             cfg.cxlPoolBytesFull = 64ull << 30;
                         },
                         2'000, 10'000, 3};

// defaultConfig() unchanged, at the run lengths and seed the Table 2
// system's simulated cycles were first recorded at.
const Shape table2 = {"table2", [](SystemConfig &) {}, 5'000, 20'000, 42};

/** Digests recorded before the MultiHostSystem per-case split. */
const std::map<std::string, std::uint64_t> golden = {
    {"pr/off/native", 0x501b0b9fe10639bull},
    {"pr/off/nomad", 0xeba4dfc98f909b75ull},
    {"pr/off/memtis", 0xd5766d0afc001751ull},
    {"pr/off/hemem", 0x2e25972c451e43d8ull},
    {"pr/off/os-skew", 0xfb8cfa778c2bff23ull},
    {"pr/off/hw-static", 0xfa7b836dd20dada2ull},
    {"pr/off/pipm", 0xa9ecc795b2b7a7b8ull},
    {"pr/off/local-only", 0x2baeb35094fdda4dull},
    {"pr/off/pipm-naive", 0x13dd464ac0a0144bull},
    {"pr/paper/native", 0x4915b5d0a03215ebull},
    {"pr/paper/nomad", 0xb313343aec9f8833ull},
    {"pr/paper/memtis", 0xf50df73ce94d635full},
    {"pr/paper/hemem", 0x3868ad36d4f6a911ull},
    {"pr/paper/os-skew", 0xeae63b2ad9cce3d2ull},
    {"pr/paper/hw-static", 0x7a9848e3fb7e5f68ull},
    {"pr/paper/pipm", 0x2ef7b332be46a613ull},
    {"pr/paper/local-only", 0x2baeb35094fdda4dull},
    {"pr/paper/pipm-naive", 0x58df4dcdad1730ecull},
    {"pr/crash/native", 0x4e6dc72e12ae7dc7ull},
    {"pr/crash/nomad", 0x45d62935e8b194full},
    {"pr/crash/memtis", 0x855432ff4ee15f81ull},
    {"pr/crash/hemem", 0xa1b3d9ac52e3e966ull},
    {"pr/crash/os-skew", 0x3bfa2711c88f0286ull},
    {"pr/crash/hw-static", 0xe3f841109706aacdull},
    {"pr/crash/pipm", 0x5a885a771ca20a00ull},
    {"pr/crash/local-only", 0x2baeb35094fdda4dull},
    {"pr/crash/pipm-naive", 0x36a84b42fec99418ull},
    {"pr/suspect/native", 0x6e3add711aa2ffbaull},
    {"pr/suspect/nomad", 0xd8b0ebd579496f76ull},
    {"pr/suspect/memtis", 0xbd2d91764930b3a4ull},
    {"pr/suspect/hemem", 0xdcb113244c225100ull},
    {"pr/suspect/os-skew", 0x4661757ac04c6137ull},
    {"pr/suspect/hw-static", 0xf83ea949d220cf8bull},
    {"pr/suspect/pipm", 0xd8e9908d5518a1ddull},
    {"pr/suspect/local-only", 0x2baeb35094fdda4dull},
    {"pr/suspect/pipm-naive", 0x22e69ada043132c4ull},
    {"pr/meta/native", 0xae72310f275c5565ull},
    {"pr/meta/nomad", 0x480514c641844bdaull},
    {"pr/meta/memtis", 0xc5f762d15b1cc897ull},
    {"pr/meta/hemem", 0x62b12fb8ff33ce61ull},
    {"pr/meta/os-skew", 0x3b010efb57b484d5ull},
    {"pr/meta/hw-static", 0x2f4d15b0bfcff5c1ull},
    {"pr/meta/pipm", 0x667d6f7e55edcba3ull},
    {"pr/meta/local-only", 0x8c7d111b63edb907ull},
    {"pr/meta/pipm-naive", 0x3a0b4a876581e632ull},
    {"ycsb/off/native", 0xf06635a90fa2471cull},
    {"ycsb/off/nomad", 0x5bbe36ac053f38daull},
    {"ycsb/off/memtis", 0x8b6f8e7d12c0718bull},
    {"ycsb/off/hemem", 0x7397e02ebbc946f4ull},
    {"ycsb/off/os-skew", 0x25feb990d5c2e80ull},
    {"ycsb/off/hw-static", 0x69f878879795659ull},
    {"ycsb/off/pipm", 0x305e497fe3a5c71aull},
    {"ycsb/off/local-only", 0xa4c9b081dcbcdf63ull},
    {"ycsb/off/pipm-naive", 0x74220347b736cfbaull},
    {"ycsb/paper/native", 0x6d1ad74897ff4d06ull},
    {"ycsb/paper/nomad", 0xa38df009a371ca7aull},
    {"ycsb/paper/memtis", 0xdf907f899a2411daull},
    {"ycsb/paper/hemem", 0x61c8428cc3ed7fb0ull},
    {"ycsb/paper/os-skew", 0xf7de35bdbf1ac3f9ull},
    {"ycsb/paper/hw-static", 0xe35a1290224630b0ull},
    {"ycsb/paper/pipm", 0x26dfb2bf782d1348ull},
    {"ycsb/paper/local-only", 0xa4c9b081dcbcdf63ull},
    {"ycsb/paper/pipm-naive", 0xb6ee795ae4beebd4ull},
    {"ycsb/crash/native", 0x519fd2e50565f174ull},
    {"ycsb/crash/nomad", 0x6b4c085a5b8bd4a6ull},
    {"ycsb/crash/memtis", 0x58e1730d096bea51ull},
    {"ycsb/crash/hemem", 0xc123a0bfa09705e4ull},
    {"ycsb/crash/os-skew", 0x85636c96e3b2c794ull},
    {"ycsb/crash/hw-static", 0x22896e6d8d61d4c7ull},
    {"ycsb/crash/pipm", 0xd7d97efef69325d4ull},
    {"ycsb/crash/local-only", 0xa4c9b081dcbcdf63ull},
    {"ycsb/crash/pipm-naive", 0x4bc54d7aa6fae6a8ull},
    {"ycsb/suspect/native", 0x1ab37c33fcd271b0ull},
    {"ycsb/suspect/nomad", 0x4ad9235ba625fb9ull},
    {"ycsb/suspect/memtis", 0xea1aa42853a4c3f2ull},
    {"ycsb/suspect/hemem", 0x6544b0f2c817ac0full},
    {"ycsb/suspect/os-skew", 0x7ce12b4f2c15e747ull},
    {"ycsb/suspect/hw-static", 0xeafd542735192a23ull},
    {"ycsb/suspect/pipm", 0x4129656351a47f0cull},
    {"ycsb/suspect/local-only", 0xa4c9b081dcbcdf63ull},
    {"ycsb/suspect/pipm-naive", 0x99f1c26e2a417372ull},
    {"ycsb/meta/native", 0x45d0a5eee3bdde69ull},
    {"ycsb/meta/nomad", 0x4f214ce164b44a7aull},
    {"ycsb/meta/memtis", 0x9e9a9061e32fab00ull},
    {"ycsb/meta/hemem", 0x2616f6808b2f85c7ull},
    {"ycsb/meta/os-skew", 0x1e1394cedb7cac09ull},
    {"ycsb/meta/hw-static", 0xd2d6d70b99fe6511ull},
    {"ycsb/meta/pipm", 0x6b165bad4d098528ull},
    {"ycsb/meta/local-only", 0xae1c69852e826c2dull},
    {"ycsb/meta/pipm-naive", 0x6384fc67b0af504full},
    // execCycles: native 4013352, nomad 3567356, memtis 2486999, hemem
    // 3221441, os-skew 2375358, hw-static 3289315, pipm 2275235,
    // local-only 1336097, pipm-naive 3209665.
    {"pr/off/table2/native", 0xe7e26da1e81558feull},
    {"pr/off/table2/nomad", 0xef4e3ddf2ffe2f89ull},
    {"pr/off/table2/memtis", 0xac50292e3a0addd6ull},
    {"pr/off/table2/hemem", 0x8295c2d9191c7079ull},
    {"pr/off/table2/os-skew", 0x45ef86cbe6cd79ceull},
    {"pr/off/table2/hw-static", 0x3e1a7ef0304c1a9cull},
    {"pr/off/table2/pipm", 0x78244894295477f7ull},
    {"pr/off/table2/local-only", 0xf313fbca4357c6abull},
    {"pr/off/table2/pipm-naive", 0x897c39f4f31a93f1ull},
};

struct GoldenCase
{
    const char *workload;
    const FaultMode *mode;
    const Shape *shape;

    /** workload, mode and any shape name, joined by `sep`. */
    std::string
    name(const char *sep) const
    {
        std::string out = std::string(workload) + sep + mode->name;
        if (*shape->name)
            out += sep + std::string(shape->name);
        return out;
    }
};

// Without this, gtest prints the case as its raw bytes, pointers that
// differ with every address-space layout, and ctest's test names with them.
void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.name("/");
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenTest, EverySchemeMatchesItsPinnedDigest)
{
    const GoldenCase &gc = GetParam();
    SystemConfig cfg = defaultConfig();
    gc.shape->apply(cfg);
    gc.mode->apply(cfg.fault);
    cfg.validate();
    const auto workload = workloadByName(gc.workload, cfg.footprintScale);

    RunConfig run;
    run.warmupRefsPerCore = gc.shape->warmupRefs;
    run.measureRefsPerCore = gc.shape->measureRefs;
    run.footprintSampleEvery = 5'000;
    run.seed = gc.shape->seed;
    run.obsFromEnv = false;

    for (Scheme s : allSchemesExtended) {
        const std::string key =
            gc.name("/") + "/" + std::string(toString(s));
        const RunResult r = runExperiment(cfg, s, *workload, run);
        EXPECT_GT(r.execCycles, 0u) << key;
        // Local-only never crosses the fabric, so no fault reaches it.
        if (s != Scheme::localOnly) {
            EXPECT_GT(gc.mode->ownCount(r), 0u)
                << key << ": the fault mode never fired, so the digest "
                          "does not cover its paths";
        }
        const std::uint64_t d = digestOf(r);
        const auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden digest for " << key << ": {\""
                          << key << "\", 0x" << std::hex << d << "ull},";
            continue;
        }
        EXPECT_EQ(it->second, d)
            << key << ": simulated results moved; new digest 0x"
            << std::hex << d;
    }
}

std::vector<GoldenCase>
allCases()
{
    std::vector<GoldenCase> out;
    for (const char *w : {"pr", "ycsb"})
        for (const FaultMode &m : faultModes)
            out.push_back({w, &m, &shortRuns});
    out.push_back({"pr", &faultModes[0], &table2});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return info.param.name("_");
    });

} // namespace
} // namespace pipm
