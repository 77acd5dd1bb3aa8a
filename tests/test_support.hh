/**
 * @file
 * Fixtures shared by the test suites. This is a header, not a library:
 * every tests/test_*.cc builds as its own binary.
 */

#ifndef PIPM_TESTS_TEST_SUPPORT_HH
#define PIPM_TESTS_TEST_SUPPORT_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/config.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workloads/synthetic.hh"

namespace pipm
{

/** A reference to line `line` of shared page `page`. */
inline MemRef
sharedRef(std::uint64_t page, unsigned line, MemOp op)
{
    MemRef r;
    r.shared = true;
    r.page = page;
    r.lineIdx = static_cast<std::uint8_t>(line);
    r.op = op;
    return r;
}

/** Line address of (shared page, line index) in the page's current
 *  frame: its CXL home unless the OS migrated the page. */
inline LineAddr
homeLine(MultiHostSystem &system, std::uint64_t page, unsigned line)
{
    return lineOf(pageBase(system.space().sharedFrame(page)) +
                  static_cast<PhysAddr>(line) * lineBytes);
}

/** Fault injection enabled with every rate zero, so a test decides
 *  exactly which fault happens when. */
inline FaultConfig
quietFaults(std::uint64_t seed = 1)
{
    FaultConfig f;
    f.enabled = true;
    f.seed = seed;
    return f;
}

/** testConfig() cut to 2 hosts x 2 cores. */
inline SystemConfig
smallSystem()
{
    SystemConfig cfg = testConfig();
    cfg.numHosts = 2;
    cfg.coresPerHost = 2;
    cfg.validate();
    return cfg;
}

/** A small synthetic workload that fits testConfig() capacities:
 *  8 GB / 256 = 32 MB shared against a 64 MB CXL pool. */
inline std::unique_ptr<Workload>
smallWorkload(double affinity = 0.9, double scan = 0.5)
{
    PatternParams p;
    p.name = "small";
    p.suite = "test";
    p.footprintFullBytes = 8ull << 30;
    p.partitionAffinity = affinity;
    p.zipfTheta = 0.8;
    p.readFrac = 0.8;
    p.seqRunLines = 8;
    p.gapMean = 20;
    p.privateFrac = 0.2;
    p.globalHotFrac = 0.08;
    p.scanFrac = scan;
    p.scanSpanFrac = 0.05;
    p.phaseRefs = 20'000;
    return std::make_unique<SyntheticWorkload>(p, 256);
}

/** 2k warmup and 8k measured references per core. */
inline RunConfig
shortRun()
{
    RunConfig run;
    run.warmupRefsPerCore = 2'000;
    run.measureRefsPerCore = 8'000;
    run.footprintSampleEvery = 8'000;
    return run;
}

/** A file's bytes; a missing or unreadable file fails the test. */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace pipm

#endif // PIPM_TESTS_TEST_SUPPORT_HH
