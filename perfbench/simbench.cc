/**
 * @file
 * Simulator benchmark program. One invocation runs one workload's Fig. 10
 * row (all eight schemes at defaultConfig()) on input J of --seed, in this
 * process on one thread, checks the simulated outputs, and prints one
 * JSON line:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * --trace 0 prints this input's part of the end-to-end metrics (host
 * seconds per scheme, set-up time, peak RSS, simulated cycles), which
 * run.py adds up over the inputs. --trace 1 prints the per-layer metrics:
 * the host time of each simulator layer, measured from outside the library
 * by timing calls into the layer's public functions on a probe instance
 * warmed with the workload's own stream, combined with the layer's work
 * counts read back from the run's stats.json export.
 *
 * Only the public API is used: runExperiment, MultiHostSystem and its
 * component accessors, CoreTrace::next, and the stats.json export.
 *
 * Usage:
 *   simbench --workload pr|ycsb|pr-meta --seed N --seconds S --trace 0|1
 *            --scratch DIR [--input J]
 * DIR receives the traced run's stats.json and is left empty.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fuzz/fuzz.hh"
#include "obs/json.hh"
#include "obs/stats_json.hh"
#include "sim/core.hh"
#include "sim/runner.hh"
#include "sim/sched.hh"
#include "sim/system.hh"
#include "workloads/catalog.hh"

namespace
{

using namespace pipm;
using Clock = std::chrono::steady_clock;

/**
 * Run length per core. Each scheme's run then takes 0.1-0.7 s of host
 * time, far above steady_clock's resolution. The slowest row (pr-meta,
 * 10 scheme runs) takes 2-7 s depending on how loaded the host machine
 * is, so a run covers its four inputs in under 30 s.
 */
constexpr std::uint64_t kWarmupRefsPerCore = 5'000;
constexpr std::uint64_t kMeasureRefsPerCore = 10'000;

/** Every this many references the probe drive records spans. */
constexpr std::uint64_t kSpanEvery = 8;

/** References the inner-layer probes run for after the drive. */
constexpr std::uint64_t kProbeRefs = 140'000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** One workload at the benchmark's fixed run length. */
struct Bench
{
    std::string name;
    SystemConfig cfg;
    std::unique_ptr<Workload> workload;
    RunConfig run;

    /** Cores in the machine. */
    std::uint64_t cores() const
    {
        return static_cast<std::uint64_t>(cfg.numHosts) * cfg.coresPerHost;
    }

    /** Simulated references one runExperiment call feeds (all cores). */
    double
    refsPerRun() const
    {
        return static_cast<double>(
            (run.warmupRefsPerCore + run.measureRefsPerCore) * cores());
    }

    /** The seed runExperiment gives core (h, c)'s trace. */
    std::uint64_t
    traceSeed(unsigned h, unsigned c) const
    {
        return run.seed + 7919 * (h * 64 + c);
    }
};

/**
 * `pr` and `ycsb` run fault-free; `pr-meta` is `pr` under the
 * paper-default metadata fault schedule (PIPM_BENCH_FAULTS=meta), so the
 * difference between the two isolates the fault and tick layer.
 */
Bench
makeBench(const std::string &name, std::uint64_t seed)
{
    Bench b;
    b.name = name;
    b.cfg = defaultConfig();
    std::string base = name;
    if (name == "pr-meta") {
        base = "pr";
        b.cfg.fault = paperMetaFaultConfig(seed);
    } else {
        fatal_if(name != "pr" && name != "ycsb", "unknown workload '",
                 name, "' (pr, ycsb, pr-meta)");
    }
    b.cfg.validate();
    b.workload = workloadByName(base, b.cfg.footprintScale);
    b.run.warmupRefsPerCore = kWarmupRefsPerCore;
    b.run.measureRefsPerCore = kMeasureRefsPerCore;
    b.run.seed = seed;
    b.run.scheduler = "heap";
    b.run.obsFromEnv = false;
    return b;
}

/** Checks counted as attempted, and failed when they do not hold. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "[simbench] FAILED: " << what << "\n";
        }
    }
};

/** Named metrics, printed in insertion order. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        bool first = true;
        for (const auto &e : entries_) {
            char num[64];
            std::snprintf(num, sizeof num, "%.17g", e.value);
            os << (first ? "" : ", ") << jsonQuote(e.name)
               << ": {\"value\": " << num
               << ", \"unit\": " << jsonQuote(e.unit) << "}";
            first = false;
        }
        os << "}";
        return os.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

// ---- Row passes ----------------------------------------------------------

/** Every timed run of one scheme, plus the result its repeats must match. */
struct SchemeRuns
{
    Scheme scheme;
    std::vector<double> wall;   ///< host seconds per timed run
    RunResult result;
    std::string fingerprint;    ///< "" until the first run succeeds
};

/**
 * Run one scheme once. Oracle: its fingerprintResult must be identical
 * across every repeat inside this process; a SimError is a failure too.
 */
void
runScheme(const Bench &b, const RunConfig &run, SchemeRuns &sr, Tally &tally,
          bool timed)
{
    const std::string what = b.name + "/" + std::string(toString(sr.scheme));
    try {
        const auto t0 = Clock::now();
        const RunResult r = runExperiment(b.cfg, sr.scheme, *b.workload, run);
        const double dt = secondsSince(t0);
        const std::string fp = fuzz::fingerprintResult(r);
        if (sr.fingerprint.empty()) {
            sr.fingerprint = fp;
            sr.result = r;
        }
        tally.check(fp == sr.fingerprint,
                    what + ": fingerprint differs between repeats");
        if (timed)
            sr.wall.push_back(dt);
    } catch (const SimError &e) {
        tally.check(false, what + ": " + e.message);
    }
}

/**
 * Set-up cost of one row: MultiHostSystem construction plus every core's
 * makeTrace, summed over the eight schemes. Tear-down is not counted.
 */
double
rowSetupSeconds(const Bench &b, Tally &tally)
{
    double total = 0.0;
    for (Scheme s : allSchemes) {
        try {
            const auto t0 = Clock::now();
            MultiHostSystem sys(b.cfg, s, *b.workload, b.run.seed);
            std::vector<std::unique_ptr<CoreTrace>> traces;
            traces.reserve(b.cores());
            for (unsigned h = 0; h < b.cfg.numHosts; ++h)
                for (unsigned c = 0; c < b.cfg.coresPerHost; ++c)
                    traces.push_back(b.workload->makeTrace(
                        static_cast<HostId>(h), static_cast<CoreId>(c),
                        b.cfg.coresPerHost, b.cfg.numHosts,
                        b.traceSeed(h, c)));
            total += secondsSince(t0);
        } catch (const SimError &e) {
            tally.check(false, b.name + " set-up: " + e.message);
        }
    }
    return total;
}

std::vector<SchemeRuns>
newRow()
{
    std::vector<SchemeRuns> row;
    for (Scheme s : allSchemes)
        row.push_back(SchemeRuns{s, {}, {}, {}});
    return row;
}

const SchemeRuns &
findScheme(const std::vector<SchemeRuns> &row, Scheme s)
{
    for (auto &sr : row)
        if (sr.scheme == s)
            return sr;
    panic("scheme missing from row");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

// ---- End-to-end (untraced) ---------------------------------------------

/** Where newRow() puts the pipm scheme. */
constexpr std::size_t kPipmSlot = 6;
static_assert(allSchemes[kPipmSlot] == Scheme::pipmFull);

/** Pointer-chase steps per calibration sample (about 40 ms). */
constexpr std::uint64_t kChaseSteps = 200'000;

/**
 * A random cyclic pointer chase over 16 MiB: one dependent load per step,
 * each on a line and usually a page the previous step did not touch. Its
 * ns/step is the host's memory latency as the simulator sees it, which
 * run.py uses to scale the refs/s figures to a nominal host.
 */
class Chase
{
  public:
    static constexpr std::size_t kBytes = std::size_t{16} << 20;

    Chase() : next_(kBytes / sizeof(std::uint64_t))
    {
        // One slot per 64-byte line, linked in a random cycle.
        constexpr std::size_t stride = lineBytes / sizeof(std::uint64_t);
        const std::size_t n = next_.size() / stride;
        std::vector<std::uint64_t> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = i * stride;
        Rng rng(0x5eed);
        for (std::size_t i = n - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        for (std::size_t i = 0; i < n; ++i)
            next_[order[i]] = order[(i + 1) % n];
    }

    /** Host nanoseconds per step over `steps` steps. */
    double
    nsPerStep(std::uint64_t steps)
    {
        std::uint64_t x = pos_;
        const auto t0 = Clock::now();
        for (std::uint64_t k = 0; k < steps; ++k)
            x = next_[x];
        const double ns = secondsSince(t0) * 1e9 / static_cast<double>(steps);
        pos_ = x;   // keeps the loop from being optimised away
        return ns;
    }

  private:
    std::vector<std::uint64_t> next_;
    std::uint64_t pos_ = 0;
};

/** The simulator seed of input j of --seed. */
std::uint64_t
inputSeed(std::uint64_t seed, unsigned j)
{
    return seed * 16 + j + 1;
}

/**
 * One input's part of the end-to-end figures; run.py runs one process per
 * input and adds the parts up. Rows of the eight schemes repeat until
 * `seconds` have gone by, at least once. Set-up and the chase are sampled
 * between rows, so transient machine noise hits them and simulation alike.
 */
void
endToEnd(const Bench &b, double seconds, Report &rep, Tally &tally)
{
    auto row = newRow();

    // Untimed warm-up: first-touch page faults, allocator pools and code
    // paths would otherwise tax whichever scheme runs first.
    rowSetupSeconds(b, tally);
    runScheme(b, b.run, row[0], tally, false);

    std::vector<double> setups, chase_ns;
    Chase chase;
    const auto t0 = Clock::now();
    unsigned passes = 0;
    for (; passes < 1 || secondsSince(t0) < seconds; ++passes) {
        for (int k = 0; k < 2; ++k)
            setups.push_back(rowSetupSeconds(b, tally));
        chase_ns.push_back(chase.nsPerStep(kChaseSteps));
        for (auto &sr : row)
            runScheme(b, b.run, sr, tally, true);
        // pipm_refs_per_s rests on one scheme, so it gets more samples.
        for (int k = 0; k < 2; ++k)
            runScheme(b, b.run, row[kPipmSlot], tally, true);
        chase_ns.push_back(chase.nsPerStep(kChaseSteps));
    }

    double row_secs = 0.0;
    for (const auto &sr : row)
        row_secs += median(sr.wall);
    const RunResult &native = findScheme(row, Scheme::native).result;
    const RunResult &pipm = row[kPipmSlot].result;
    tally.check(native.execCycles > 0 && pipm.execCycles > 0,
                b.name + ": pipm_speedup undefined");

    std::cout << "# " << b.name << " seed " << b.run.seed << ": " << passes
              << " timed rows, " << setups.size()
              << " set-up samples, medians per scheme\n";
    rep.add("row_refs",
            b.refsPerRun() * static_cast<double>(allSchemes.size()), "count");
    rep.add("pipm_refs", b.refsPerRun(), "count");
    rep.add("row_s", row_secs, "s");
    rep.add("pipm_s", median(row[kPipmSlot].wall), "s");
    rep.add("chase_ns", median(chase_ns), "ns");
    rep.add("setup_s", median(setups), "s");
    // The chase buffer is resident for the whole timed loop.
    rep.add("peak_rss_mb",
            peakRssMb() - static_cast<double>(Chase::kBytes) / (1 << 20),
            "MB");
    rep.add("native_cycles", static_cast<double>(native.execCycles),
            "cycles");
    rep.add("pipm_cycles", static_cast<double>(pipm.execCycles), "cycles");
}

// ---- Traced: stats.json work counts ------------------------------------

/** Interval counter columns of a stats.json, summed over intervals. */
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

Counts
counterTotals(const JsonValue &doc)
{
    Counts out;
    const JsonValue *iv = doc.find("intervals");
    const JsonValue *names = iv ? iv->find("counters") : nullptr;
    const JsonValue *samples = iv ? iv->find("samples") : nullptr;
    if (!names || !samples)
        return out;
    for (const JsonValue &n : names->arr)
        out.emplace_back(n.raw, 0);
    for (const JsonValue &s : samples->arr) {
        const JsonValue *vals = s.find("counters");
        if (!vals)
            continue;
        for (std::size_t i = 0; i < vals->arr.size() && i < out.size(); ++i)
            out[i].second += vals->arr[i].asU64();
    }
    return out;
}

/** Sum of every counter named `suffix` in any group instance
 *  ("cache.l1_hits" matches host0.cache.l1_hits, host1.cache.l1_hits..). */
double
sum(const Counts &counts, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, v] : counts) {
        if (name == suffix ||
            (name.size() > suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0 &&
             name[name.size() - suffix.size() - 1] == '.'))
            total += v;
    }
    return static_cast<double>(total);
}

/** The RunResult fields stats.json's "totals" must reproduce exactly. */
bool
totalsMatch(const JsonValue &doc, const RunResult &r, std::string *why)
{
    const JsonValue *totals = doc.find("totals");
    if (!totals) {
        *why = "no totals section";
        return false;
    }
    const std::pair<const char *, std::uint64_t> fields[] = {
        {"exec_cycles", r.execCycles},
        {"instructions", r.instructions},
        {"shared_accesses", r.sharedAccesses},
        {"shared_llc_misses", r.sharedLlcMisses},
        {"local_served_misses", r.localServedMisses},
        {"cxl_served_misses", r.cxlServedMisses},
        {"inter_host_accesses", r.interHostAccesses},
        {"inter_host_stall_cycles", r.interHostStallCycles},
        {"mgmt_stall_cycles", r.mgmtStallCycles},
        {"migration_transfer_bytes", r.migrationTransferBytes},
        {"os_migrations", r.osMigrations},
        {"pipm_promotions", r.pipmPromotions},
        {"pipm_revocations", r.pipmRevocations},
        {"pipm_lines_in", r.pipmLinesIn},
        {"pipm_lines_back", r.pipmLinesBack},
        {"harmful_migrations", r.harmfulMigrations},
        {"total_tracked_migrations", r.totalTrackedMigrations},
        {"link_crc_errors", r.linkCrcErrors},
        {"poison_events", r.poisonEvents},
        {"degraded_accesses", r.degradedAccesses},
        {"migration_aborts", r.migrationAborts},
        {"migrations_deferred", r.migrationsDeferred},
    };
    for (const auto &[name, want] : fields) {
        const JsonValue *v = totals->find(name);
        if (!v || v->asU64() != want) {
            *why = std::string("totals.") + name + " differs from RunResult";
            return false;
        }
    }
    return true;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---- Traced: the probe drive -------------------------------------------

/** One simulated core, as runExperiment models it. */
struct Slot
{
    HostId host;
    CoreId core;
    OooCore model;
    std::unique_ptr<CoreTrace> trace;
    std::uint64_t refs = 0;
    Cycles measureStart = 0;
};

std::vector<Slot>
makeSlots(const Bench &b)
{
    std::vector<Slot> slots;
    for (unsigned h = 0; h < b.cfg.numHosts; ++h)
        for (unsigned c = 0; c < b.cfg.coresPerHost; ++c)
            slots.push_back(Slot{
                static_cast<HostId>(h), static_cast<CoreId>(c),
                OooCore(b.cfg.core),
                b.workload->makeTrace(static_cast<HostId>(h),
                                      static_cast<CoreId>(c),
                                      b.cfg.coresPerHost, b.cfg.numHosts,
                                      b.traceSeed(h, c)),
                0, 0});
    return slots;
}

double
nsBetween(Clock::time_point a, Clock::time_point z)
{
    return std::chrono::duration<double, std::nano>(z - a).count();
}

/** Mean host nanoseconds per reference of each outer-loop step. */
struct DriveSpans
{
    double next = 0, sched = 0, tick = 0, access = 0, core = 0;
    double wallSeconds = 0;   ///< the whole drive, spans included
    Cycles execCycles = 0;    ///< what runExperiment reports as execCycles
};

/**
 * Replay runExperiment's main loop on `sys` through the public API
 * (CoreTrace::next, OooCore, CoreScheduler, tick, access), timing each
 * step with steady_clock spans on every kSpanEvery-th reference. The
 * benchmark workloads have no crash or lease schedule, so the runner's
 * dead-host and stall branches never apply. The spans do not touch
 * simulated state, so the instance ends exactly where a real run ends.
 */
DriveSpans
probeDrive(const Bench &b, MultiHostSystem &sys, std::vector<Slot> &slots)
{
    const std::uint64_t total =
        b.run.warmupRefsPerCore + b.run.measureRefsPerCore;
    CoreScheduler sched(slots.size());
    std::uint64_t warm_pending = b.run.warmupRefsPerCore ? slots.size() : 0;
    std::uint64_t done = 0;
    bool measuring = false;

    // Span sums (ns) and the clock-read cost each span carries.
    double s_next = 0, s_sched = 0, s_tick = 0, s_access = 0, s_core = 0;
    double s_clock = 0;
    std::uint64_t sampled = 0;
    std::uint64_t iter = 0;

    const auto wall0 = Clock::now();
    while (done < slots.size()) {
        if (!measuring && warm_pending == 0) {
            measuring = true;
            sys.resetStats();
            for (auto &s : slots)
                s.measureStart = s.model.now();
        }
        const bool span = iter++ % kSpanEvery == 0;
        Clock::time_point t0, t1, t2, t3, t4, t5, t6;
        if (span)
            t0 = Clock::now();
        const std::uint32_t idx = sched.top();
        Slot &s = slots[idx];
        if (span)
            t1 = Clock::now();
        const MemRef ref = s.trace->next();
        if (span)
            t2 = Clock::now();
        s.model.advanceGap(ref.gap);
        if (span)
            t3 = Clock::now();
        sys.tick(s.model.now());
        if (span)
            t4 = Clock::now();
        panic_if(!sys.hostAlive(s.host), "probe drive: host died");
        const AccessResult res =
            sys.access(s.host, s.core, ref, s.model.now());
        if (span)
            t5 = Clock::now();
        if (res.stall)
            s.model.stall(res.stall);
        if (ref.op == MemOp::read)
            s.model.issueLoad(res.latency);
        else
            s.model.issueStore(res.latency);
        ++s.refs;
        if (warm_pending && s.refs == b.run.warmupRefsPerCore)
            --warm_pending;
        if (span)
            t6 = Clock::now();
        if (s.refs >= total) {
            s.model.drainAll();
            ++done;
            sched.remove(idx);
        } else {
            sched.update(idx, s.model.now());
        }
        if (span) {
            const Clock::time_point t7 = Clock::now();
            s_clock += nsBetween(t7, Clock::now());
            s_sched += nsBetween(t0, t1) + nsBetween(t6, t7);
            s_next += nsBetween(t1, t2);
            s_core += nsBetween(t2, t3) + nsBetween(t5, t6);
            s_tick += nsBetween(t3, t4);
            s_access += nsBetween(t4, t5);
            ++sampled;
        }
    }

    DriveSpans d;
    d.wallSeconds = secondsSince(wall0);
    // Each interval carries one clock read; sched and core span two.
    const double n = static_cast<double>(std::max<std::uint64_t>(sampled, 1));
    const double clk = s_clock / n;
    d.sched = std::max(0.0, s_sched / n - 2 * clk);
    d.next = std::max(0.0, s_next / n - clk);
    d.core = std::max(0.0, s_core / n - 2 * clk);
    d.tick = std::max(0.0, s_tick / n - clk);
    d.access = std::max(0.0, s_access / n - clk);
    for (const auto &s : slots)
        d.execCycles = std::max(d.execCycles, s.model.now() - s.measureStart);
    return d;
}

/** The inner layers probed, in the order the probe rotates through. */
enum Probe : unsigned
{
    probeCache,     ///< CacheHierarchy::lookup
    probeDir,       ///< DeviceDirectory::lookup
    probeImage,     ///< MemoryImage::read
    probeDram,      ///< DramDevice::access
    probeLink,      ///< CxlLink::transfer
    probeRemap,     ///< RemapCache::lookup (+ fill on a miss)
    probeVote,      ///< PipmState::deviceAccess
    numProbes
};

/** Mean host nanoseconds per call of each inner layer's function. */
using InnerProbes = std::array<double, numProbes>;

/**
 * Keep driving the instance past the run's end for kProbeRefs references
 * and, just before each access, time one call into an inner layer on the
 * line that access is about to touch (rotating through the layers). The
 * accesses between probes keep the host caches as a real run leaves
 * them, so a probe pays the misses the layer pays in the simulator
 * rather than a hot-loop figure. The probes move simulated state
 * (replacement order, bank clocks, votes), which is why they run only
 * after probeDrive's oracle-checked run.
 */
InnerProbes
probeLayers(const Bench &b, MultiHostSystem &sys, std::vector<Slot> &slots)
{
    const SystemConfig &cfg = b.cfg;
    panic_if(!sys.pipmState(), "inner probes need a pipm instance");
    CoreScheduler sched(slots.size());
    for (std::uint32_t i = 0; i < slots.size(); ++i)
        sched.update(i, slots[i].model.now());

    double sum_ns[numProbes] = {};
    std::uint64_t calls[numProbes] = {};
    double s_clock = 0;
    std::uint64_t clock_n = 0;
    unsigned next_probe = 0;
    volatile std::uint64_t sink = 0;

    for (std::uint64_t iter = 0; iter < kProbeRefs; ++iter) {
        const std::uint32_t idx = sched.top();
        Slot &s = slots[idx];
        const MemRef ref = s.trace->next();
        s.model.advanceGap(ref.gap);
        const Cycles now = s.model.now();
        sys.tick(now);

        const PhysAddr pa =
            ref.shared
                ? pageBase(sys.space().sharedFrame(ref.page)) +
                      static_cast<PhysAddr>(ref.lineIdx) * lineBytes
                : sys.space().privateAddr(
                      s.host, ref.page * pageBytes +
                                  static_cast<std::uint64_t>(ref.lineIdx) *
                                      lineBytes);
        const bool in_cxl = pa >= cfg.cxlBase();
        const Probe probe = static_cast<Probe>(next_probe);
        const bool device_probe = probe == probeDir || probe == probeLink ||
                                  probe == probeRemap || probe == probeVote;
        if (!device_probe || in_cxl) {
            const LineAddr line = lineOf(pa);
            const auto t0 = Clock::now();
            switch (probe) {
              case probeCache:
                sink = sink + static_cast<std::uint64_t>(
                                  sys.hierarchy(s.host).lookup(s.core, line)
                                      .level);
                break;
              case probeDir:
                sink = sink + (sys.deviceDirectory().lookup(line) ? 1 : 0);
                break;
              case probeImage:
                sink = sink + sys.memory().read(line);
                break;
              case probeDram:
                sink = sink + (in_cxl ? sys.cxlDram().access(
                                            pa - cfg.cxlBase(), now, false)
                                      : sys.localDram(s.host).access(
                                            pa - cfg.localBase(s.host), now,
                                            false));
                break;
              case probeLink:
                sink = sink + sys.link(s.host).transfer(
                                  LinkDir::toDevice, CxlFlits::header, now);
                break;
              case probeRemap: {
                RemapCache *rc = sys.localRemapCache(s.host);
                if (!rc->lookup(pageOf(pa)))
                    rc->fill(pageOf(pa));
                break;
              }
              case probeVote:
                sink = sink + sys.pipmState()
                                  ->deviceAccess(pageOf(pa), s.host, true)
                                  .promoted;
                break;
              case numProbes:
                break;
            }
            const auto t1 = Clock::now();
            s_clock += nsBetween(t1, Clock::now());
            ++clock_n;
            sum_ns[probe] += nsBetween(t0, t1);
            ++calls[probe];
            next_probe = (next_probe + 1) % numProbes;
        }

        const AccessResult res = sys.access(s.host, s.core, ref, now);
        if (res.stall)
            s.model.stall(res.stall);
        if (ref.op == MemOp::read)
            s.model.issueLoad(res.latency);
        else
            s.model.issueStore(res.latency);
        sched.update(idx, s.model.now());
    }

    InnerProbes p{};
    const double clk = ratio(s_clock, static_cast<double>(clock_n));
    for (unsigned k = 0; k < numProbes; ++k)
        p[k] = calls[k] ? std::max(0.0, sum_ns[k] / static_cast<double>(
                                               calls[k]) - clk)
                           : 0.0;
    return p;
}

// ---- Traced (per-layer) ------------------------------------------------

void
perLayer(const Bench &b, double seconds, const std::string &scratch,
         Report &rep, Tally &tally)
{
    // The row on one input: per-scheme rates and the untraced pipm wall
    // time every *.share divides by. About a third of the budget goes
    // here, a quarter to the export pairs below; the probes take the
    // rest, whatever it is.
    auto row = newRow();
    runScheme(b, b.run, row[0], tally, false);
    const auto t0 = Clock::now();
    int passes = 0;
    for (; passes < 2 || secondsSince(t0) < seconds / 3; ++passes)
        for (auto &sr : row)
            runScheme(b, b.run, sr, tally, true);
    const SchemeRuns &pipm = findScheme(row, Scheme::pipmFull);

    // obs: the same pipm run with the stats.json export on, alternated
    // with runs that have it off. pr-meta adds fault-free runs of the same
    // stream for the fault layer's overhead.
    const std::string stats_path = scratch + "/stats.json";
    RunConfig obs_run = b.run;
    obs_run.statsJsonPath = stats_path;
    SchemeRuns obs_on{Scheme::pipmFull, {}, {}, {}};
    SchemeRuns obs_off{Scheme::pipmFull, {}, {}, {}};
    Bench clean = makeBench("pr", b.run.seed);
    SchemeRuns no_fault{Scheme::pipmFull, {}, {}, {}};
    const bool faulted = b.cfg.fault.enabled;
    std::string doc_text;
    const auto t1 = Clock::now();
    for (int pair = 0; pair < 2 || secondsSince(t1) < seconds / 4; ++pair) {
        runScheme(b, obs_run, obs_on, tally, true);
        if (pair == 0)
            doc_text = readFile(stats_path);
        std::filesystem::remove(stats_path);
        runScheme(b, b.run, obs_off, tally, true);
        if (faulted)
            runScheme(clean, clean.run, no_fault, tally, true);
    }
    std::cout << "# " << b.name << ": " << passes << " timed rows, "
              << obs_on.wall.size() << " export on/off pairs, "
              << kProbeRefs << " probed references\n";
    tally.check(obs_on.fingerprint == pipm.fingerprint,
                b.name + ": stats.json export changed the pipm result");

    const auto errors = validateStatsJson(doc_text);
    for (const auto &e : errors)
        std::cerr << "[simbench] stats.json: " << e << "\n";
    tally.check(!doc_text.empty() && errors.empty(),
                b.name + ": stats.json fails validateStatsJson");
    std::string perr;
    const auto doc = parseJson(doc_text, &perr);
    std::string why = perr;
    tally.check(doc && totalsMatch(*doc, obs_on.result, &why),
                b.name + ": stats.json totals: " + why);
    const Counts counts = doc ? counterTotals(*doc) : Counts{};

    // Probe instance: warmed with the workload's stream, then probed.
    DriveSpans d;
    InnerProbes p{};
    std::vector<double> pipm_setup;
    try {
        for (int i = 0; i < 3; ++i) {
            const auto s0 = Clock::now();
            MultiHostSystem sys(b.cfg, Scheme::pipmFull, *b.workload,
                                b.run.seed);
            pipm_setup.push_back(secondsSince(s0));
        }
        MultiHostSystem sys(b.cfg, Scheme::pipmFull, *b.workload, b.run.seed);
        std::vector<Slot> slots = makeSlots(b);
        d = probeDrive(b, sys, slots);
        tally.check(d.execCycles == pipm.result.execCycles,
                    b.name + ": probe drive does not reproduce "
                             "runExperiment's exec_cycles");
        p = probeLayers(b, sys, slots);
    } catch (const SimError &e) {
        tally.check(false, b.name + " probe: " + e.message);
    }

    // Work counts: stats.json covers the measured phase; scale to the
    // whole run (warmup included) that the wall time covers.
    const double measured_refs = sum(counts, "system.demand_accesses");
    const double run_refs = b.refsPerRun();
    const double scale = ratio(run_refs, measured_refs);
    const double kref = measured_refs / 1000.0;
    const double wall_ns = median(pipm.wall) * 1e9;
    auto share = [&](double calls, double ns_per_call) {
        return ratio(calls * ns_per_call, wall_ns);
    };

    const double l1 = sum(counts, "cache.l1_hits");
    const double llc = sum(counts, "cache.llc_hits");
    const double miss = sum(counts, "cache.misses");
    const double dir_lookups = sum(counts, "device_dir.lookups");
    const double local_dram = sum(counts, "local_dram.reads") +
                              sum(counts, "local_dram.writes");
    const double cxl_dram =
        sum(counts, "cxl_dram.reads") + sum(counts, "cxl_dram.writes");
    const double dram_calls = local_dram + cxl_dram;
    const double row_hits = sum(counts, "row_hits");
    const double row_misses = sum(counts, "row_misses");
    const double link_msgs = sum(counts, "link.messages");
    const double link_bytes = sum(counts, "link.bytes_to_device") +
                              sum(counts, "link.bytes_to_host");
    const double remap_hits = sum(counts, "local_remap.hits") +
                              sum(counts, "global_remap.hits");
    const double remap_calls = remap_hits +
                               sum(counts, "local_remap.misses") +
                               sum(counts, "global_remap.misses");
    const double local_remap_hits = sum(counts, "local_remap.hits");
    const double local_remap_calls =
        local_remap_hits + sum(counts, "local_remap.misses");
    // Every shared miss not served from local DRAM reaches the device
    // and casts a vote.
    const double votes = sum(counts, "system.shared_llc_misses") -
                         sum(counts, "system.local_served_misses");
    const double promotions = sum(counts, "pipm.promotions");

    std::vector<std::pair<std::string, double>> shares = {
        {"workloads.share", share(run_refs, d.next)},
        {"sim.sched_share", share(run_refs, d.sched)},
        {"sim.core_share", share(run_refs, d.core)},
        {"sim.tick_share", share(run_refs, d.tick)},
        {"sim.setup_share", ratio(median(pipm_setup) * 1e9, wall_ns)},
        {"cache.share", share((l1 + llc + miss) * scale, p[probeCache])},
        {"coherence.share", share(dir_lookups * scale, p[probeDir])},
        {"mem.image_share", share(dram_calls * scale, p[probeImage])},
        {"mem.dram_share", share(dram_calls * scale, p[probeDram])},
        {"cxl.share", share(link_msgs * scale, p[probeLink])},
        {"pipm.share", share(remap_calls * scale, p[probeRemap]) +
                           share(votes * scale, p[probeVote])},
    };
    double accounted = 0.0;
    for (const auto &[name, v] : shares)
        accounted += v;

    rep.add("workloads.next_ns", d.next, "ns");
    rep.add("sim.sched_ns", d.sched, "ns");
    rep.add("sim.core_ns", d.core, "ns");
    rep.add("sim.tick_ns", d.tick, "ns");
    rep.add("sim.access_ns", d.access, "ns");
    rep.add("sim.residual_share", 1.0 - accounted, "fraction");
    rep.add("sim.probe_overhead_frac",
            ratio(d.wallSeconds, median(pipm.wall)) - 1.0, "fraction");
    rep.add("cache.lookup_ns", p[probeCache], "ns");
    rep.add("cache.l1_hit_ratio", ratio(l1, l1 + llc + miss), "fraction");
    rep.add("cache.llc_hit_ratio", ratio(llc, llc + miss), "fraction");
    rep.add("coherence.dir_lookup_ns", p[probeDir], "ns");
    rep.add("coherence.dir_lookups_per_kref", ratio(dir_lookups, kref),
            "count");
    rep.add("coherence.upgrades_per_kref",
            ratio(sum(counts, "system.upgrades"), kref), "count");
    rep.add("coherence.inter_host_per_kref",
            ratio(sum(counts, "system.inter_host_accesses"), kref), "count");
    rep.add("mem.image_read_ns", p[probeImage], "ns");
    rep.add("mem.dram_access_ns", p[probeDram], "ns");
    rep.add("mem.local_dram_per_kref", ratio(local_dram, kref), "count");
    rep.add("mem.cxl_dram_per_kref", ratio(cxl_dram, kref), "count");
    rep.add("mem.row_hit_ratio", ratio(row_hits, row_hits + row_misses),
            "fraction");
    rep.add("cxl.traverse_ns", p[probeLink], "ns");
    rep.add("cxl.messages_per_kref", ratio(link_msgs, kref), "count");
    rep.add("cxl.bytes_per_ref", ratio(link_bytes, measured_refs), "B");
    rep.add("pipm.remap_lookup_ns", p[probeRemap], "ns");
    rep.add("pipm.vote_ns", p[probeVote], "ns");
    rep.add("pipm.local_remap_hit_ratio",
            ratio(local_remap_hits, local_remap_calls), "fraction");
    rep.add("pipm.promotions_per_kref", ratio(promotions, kref), "count");
    rep.add("pipm.lines_per_promotion",
            ratio(sum(counts, "pipm.lines_in"), promotions), "count");
    for (const auto &[name, v] : shares)
        rep.add(name, v, "fraction");

    // migration: the whole row.
    double harmful = 0, tracked = 0, os_migrations = 0;
    for (const auto &sr : row) {
        harmful += static_cast<double>(sr.result.harmfulMigrations);
        tracked += static_cast<double>(sr.result.totalTrackedMigrations);
        os_migrations += static_cast<double>(sr.result.osMigrations);
    }
    rep.add("migration.harmful_fraction", ratio(harmful, tracked),
            "fraction");
    rep.add("migration.os_migrations", os_migrations, "count");
    for (const auto &sr : row)
        rep.add("scheme." + std::string(toString(sr.scheme)) + ".refs_per_s",
                ratio(b.refsPerRun(), median(sr.wall)), "1/s");

    rep.add("fault.overhead_frac",
            faulted ? ratio(median(obs_off.wall), median(no_fault.wall)) - 1.0
                    : 0.0,
            "fraction");
    rep.add("fault.meta_scrub_checks", sum(counts, "fault.meta_scrub_checks"),
            "count");
    rep.add("fault.meta_corruptions", sum(counts, "fault.meta_corruptions"),
            "count");
    rep.add("fault.line_aborts", sum(counts, "fault.line_aborts"), "count");

    rep.add("obs.overhead_frac",
            ratio(median(obs_on.wall), median(obs_off.wall)) - 1.0,
            "fraction");
    rep.add("obs.stats_json_bytes", static_cast<double>(doc_text.size()),
            "B");
}

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "simbench: " << msg
              << "\nusage: simbench --workload pr|ycsb|pr-meta --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--input J]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, scratch;
    std::uint64_t seed = 0;
    unsigned input = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed must be a whole number");
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || seconds <= 0.0)
                usage("--seconds must be a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            trace = v == "1";
        } else if (a == "--input") {
            input = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
            if (v.empty() || *end)
                usage("--input must be a whole number");
        } else if (a == "--scratch") {
            scratch = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (workload.empty() || seconds <= 0.0 || trace < 0 || scratch.empty())
        usage("--workload, --seconds, --trace and --scratch are required");

    // Panics and fatal errors throw SimError, which the oracles count.
    detail::throwOnError = true;
    Tally tally;
    Report rep;
    try {
        const Bench b = makeBench(workload, inputSeed(seed, input));
        if (trace)
            perLayer(b, seconds, scratch, rep, tally);
        else
            endToEnd(b, seconds, rep, tally);
    } catch (const SimError &e) {
        tally.check(false, workload + ": " + e.message);
    }
    std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << rep.json() << "}" << std::endl;
    return 0;
}
