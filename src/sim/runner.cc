#include "sim/runner.hh"

#include <algorithm>
#include <charconv>
#include <memory>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/metrics_registry.hh"
#include "obs/stats_json.hh"
#include "obs/trace.hh"
#include "sim/core.hh"
#include "sim/sched.hh"
#include "sim/system.hh"

namespace pipm
{

namespace
{

/** What the inner loop must actually do, resolved once per run so the
 *  measured loop tests one bit instead of chasing pointers (§9). */
enum RunMode : unsigned
{
    modeFaults = 1u << 0,     ///< crash schedule: dead-host branch live
    modeDetection = 1u << 1,  ///< lease detector: stall-window branch live
    modeObs = 1u << 2,        ///< telemetry interval accounting
    modeCheck = 1u << 3,      ///< PIPM_CHECK_INVARIANTS cadence
};

} // namespace

std::vector<PhysAddr>
parseWatchLines(std::string_view list)
{
    std::vector<PhysAddr> lines;
    if (list.empty())
        return lines;
    for (;;) {
        const std::size_t comma = list.find(',');
        const std::string_view item = list.substr(0, comma);
        std::string_view digits = item;
        int base = 10;
        if (digits.starts_with("0x") || digits.starts_with("0X")) {
            digits.remove_prefix(2);
            base = 16;
        }
        const char *end = digits.data() + digits.size();
        PhysAddr line = 0;
        const auto [ptr, ec] =
            std::from_chars(digits.data(), end, line, base);
        if (ec != std::errc() || ptr != end)
            fatal("PIPM_OBS_WATCH item '", item,
                  "' is not a decimal or 0x-hex line address");
        lines.push_back(line);
        if (comma == std::string_view::npos)
            return lines;
        list.remove_prefix(comma + 1);
    }
}

void
addCounterFields(MultiHostSystem &system, RunResult &out)
{
    system.forEachStatGroup([&](StatGroup &g, const std::string &prefix) {
        g.forEachCounter([&](const std::string &stat, const Counter &c) {
            const std::string column = prefix + g.name() + '.' + stat;
            for (const RunResultField &f : runResultFields) {
                if (f.kind == RunResultField::counter && f.sums(column))
                    out.*f.u64 += c.value();
            }
        });
    });
}

RunResult
runExperiment(const SystemConfig &cfg, Scheme scheme,
              const Workload &workload, const RunConfig &run)
{
    // Reject nonsensical configurations before building the machine; the
    // system constructor validates too, but failing here keeps the error
    // at the experiment boundary every harness goes through.
    cfg.validate();
    MultiHostSystem system(cfg, scheme, workload, run.seed);

    // ---- Observability knobs (DESIGN.md §10) ---------------------------
    std::string stats_path = run.statsJsonPath;
    std::uint64_t obs_interval = run.obsIntervalAccesses;
    std::uint64_t trace_capacity = run.obsTraceCapacity;
    std::string watch_lines = run.obsWatchLines;
    if (run.obsFromEnv) {
        stats_path = envStr("PIPM_STATS_JSON", stats_path);
        obs_interval = envU64("PIPM_OBS_INTERVAL", obs_interval);
        trace_capacity = envU64("PIPM_OBS_TRACE", trace_capacity);
        watch_lines = envStr("PIPM_OBS_WATCH", watch_lines);
    }
    const bool obs_on = !stats_path.empty();

    struct CoreSlot
    {
        HostId host;
        CoreId core;
        OooCore model;
        std::unique_ptr<CoreTrace> trace;
        std::uint64_t refs = 0;
        bool done = false;
        Cycles measureStart = 0;
        std::uint64_t measureStartInstr = 0;
    };

    std::vector<CoreSlot> cores;
    cores.reserve(static_cast<std::size_t>(cfg.numHosts) *
                  cfg.coresPerHost);
    for (unsigned h = 0; h < cfg.numHosts; ++h) {
        for (unsigned c = 0; c < cfg.coresPerHost; ++c) {
            cores.push_back(CoreSlot{
                static_cast<HostId>(h), static_cast<CoreId>(c),
                OooCore(cfg.core),
                workload.makeTrace(static_cast<HostId>(h),
                                   static_cast<CoreId>(c),
                                   cfg.coresPerHost, cfg.numHosts,
                                   run.seed + 7919 * (h * 64 + c)),
                0, false, 0, 0});
        }
    }

    const std::uint64_t total_refs =
        run.warmupRefsPerCore + run.measureRefsPerCore;

    // Footprint sampling accumulators (Fig. 13).
    double page_frac_sum = 0.0;
    double line_frac_sum = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t accesses_since_sample = 0;
    const double total_pages =
        static_cast<double>(system.space().sharedPages());

    bool measuring = false;
    std::uint64_t done_count = 0;

    const std::uint64_t check_every =
        envU64("PIPM_CHECK_INVARIANTS", run.checkInvariantsEvery);
    std::uint64_t accesses_since_check = 0;

    // ---- Scheduler selection (DESIGN.md §9) -----------------------------
    // The indexed min-heap and the historical linear scan produce the
    // same schedule by construction (see sim/sched.hh); the scan is kept
    // as the reference implementation behind PIPM_SCHED=scan so the
    // bit-identity claim stays testable.
    std::string sched_mode = run.scheduler;
    if (sched_mode.empty())
        sched_mode = envStr("PIPM_SCHED", "heap");
    const bool heap_sched = sched_mode == "heap";
    panic_if(!heap_sched && sched_mode != "scan",
             "PIPM_SCHED must be 'heap' or 'scan', got '", sched_mode,
             "'");
    CoreScheduler sched(heap_sched ? cores.size() : 0);

    unsigned mode = 0;
    if (system.faultInjector())
        mode |= modeFaults;
    if (system.detectionEnabled())
        mode |= modeDetection;
    if (obs_on)
        mode |= modeObs;
    if (check_every)
        mode |= modeCheck;

    // Warmup bookkeeping: number of live cores still short of their
    // warmup refs. Replaces the historical all-cores rescan; a slot
    // leaves the count when its refs reach the threshold or when it
    // retires early (never-rejoining host crash) while still cold.
    std::uint64_t warm_pending =
        run.warmupRefsPerCore ? cores.size() : 0;

    // Telemetry: snapshot every registered stat group at interval
    // boundaries. When export is off no registry exists and the measured
    // loop pays nothing beyond one boolean test.
    MetricsRegistry registry;
    std::unique_ptr<ObsTrace> trace;
    if (obs_on) {
        system.registerStats(registry);
        if (trace_capacity > 0) {
            trace = std::make_unique<ObsTrace>(trace_capacity);
            // PIPM_OBS_WATCH: line addresses whose directory
            // transitions get traced.
            for (const PhysAddr line : parseWatchLines(watch_lines))
                trace->watchLine(line);
            system.attachTrace(trace.get());
        }
        if (obs_interval == 0) {
            // Default: eight intervals over the nominal measurement.
            obs_interval = std::max<std::uint64_t>(
                1, run.measureRefsPerCore * cores.size() / 8);
        }
    }
    std::uint64_t obs_accesses = 0;     ///< measured accesses so far
    std::uint64_t obs_since_close = 0;

    auto sample_footprint = [&]() {
        double page_sum = 0.0;
        double line_sum = 0.0;
        for (unsigned h = 0; h < cfg.numHosts; ++h) {
            page_sum += static_cast<double>(
                system.space().migratedFramesOn(static_cast<HostId>(h)));
            if (system.pipmState()) {
                line_sum +=
                    static_cast<double>(system.pipmState()->migratedLinesOn(
                        static_cast<HostId>(h))) /
                    linesPerPage;
            }
        }
        const double hosts = static_cast<double>(cfg.numHosts);
        page_frac_sum += page_sum / hosts / total_pages;
        line_frac_sum += line_sum / hosts / total_pages;
        ++samples;
    };

    while (done_count < cores.size()) {
        // Advance the core with the smallest local clock (first-min-wins
        // among ties: lowest slot index). The heap pops it in O(log n);
        // the reference scan walks every live slot.
        std::uint32_t idx;
        if (heap_sched) {
            idx = sched.top();
        } else {
            const CoreSlot *pick = nullptr;
            for (const auto &slot : cores) {
                if (slot.done)
                    continue;
                if (!pick || slot.model.now() < pick->model.now())
                    pick = &slot;
            }
            panic_if(!pick, "no runnable core");
            idx = static_cast<std::uint32_t>(pick - cores.data());
        }
        CoreSlot *next = &cores[idx];

        if ((mode & modeFaults) && !system.hostAlive(next->host)) {
            // The issuing host is down. A host that never rejoins retires
            // this core; otherwise park its clock at the rejoin time so
            // the min-clock scheduler resumes it right after the rejoin
            // event is processed. (With no crash schedule every host is
            // always alive and this branch never runs.)
            const Cycles up = system.hostDownUntil(next->host);
            if (up == maxCycles) {
                next->model.drainAll();
                next->done = true;
                ++done_count;
                if (warm_pending && next->refs < run.warmupRefsPerCore)
                    --warm_pending;
                if (heap_sched)
                    sched.remove(idx);
                continue;
            }
            if (next->model.now() < up)
                next->model.stall(up - next->model.now());
            // The inlined event horizon makes this a single compare when
            // the rejoin is still in the future (the historical code ran
            // the full subsystem chain on every park pass).
            system.tick(next->model.now());
            if (heap_sched)
                sched.update(idx, next->model.now());
            continue;
        }

        // A gray-failed (stalled) host executes nothing: park its cores
        // at the end of the stall window. The lease detector may fence
        // the host first, in which case the dead-host branch above takes
        // over on the next pass.
        if (mode & modeDetection) {
            const Cycles stalled_until =
                system.hostStalledUntil(next->host, next->model.now());
            if (stalled_until > next->model.now()) {
                next->model.stall(stalled_until - next->model.now());
                system.tick(next->model.now());
                if (heap_sched)
                    sched.update(idx, next->model.now());
                continue;
            }
        }

        if (!measuring && warm_pending == 0) {
            // Warmup ends when every core has issued its warmup refs.
            // Cores retired by a never-rejoining host crash are exempt.
            measuring = true;
            system.resetStats();
            if (obs_on) {
                // Baseline right after the reset: interval deltas sum
                // to the end-of-run totals by construction.
                registry.begin();
            }
            for (auto &slot : cores) {
                slot.measureStart = slot.model.now();
                slot.measureStartInstr = slot.model.instructions();
            }
        }

        const MemRef ref = next->trace->next();
        next->model.advanceGap(ref.gap);
        system.tick(next->model.now());
        // The tick may have processed a crash event that just killed this
        // very host; the in-flight access dies with it.
        if ((mode & modeFaults) && !system.hostAlive(next->host)) {
            if (heap_sched)
                sched.update(idx, next->model.now());
            continue;
        }
        const AccessResult res =
            system.access(next->host, next->core, ref, next->model.now());
        if (res.stall)
            next->model.stall(res.stall);
        if (ref.op == MemOp::read)
            next->model.issueLoad(res.latency);
        else
            next->model.issueStore(res.latency);

        ++next->refs;
        if (warm_pending && next->refs == run.warmupRefsPerCore)
            --warm_pending;
        if (next->refs >= total_refs) {
            next->model.drainAll();
            next->done = true;
            ++done_count;
            if (heap_sched)
                sched.remove(idx);
        } else if (heap_sched) {
            sched.update(idx, next->model.now());
        }

        if (measuring && (mode & modeObs)) {
            ++obs_accesses;
            if (++obs_since_close >= obs_interval) {
                obs_since_close = 0;
                registry.closeInterval(obs_accesses, next->model.now());
            }
        }

        if (measuring && ++accesses_since_sample >=
                             run.footprintSampleEvery) {
            accesses_since_sample = 0;
            sample_footprint();
        }
        if ((mode & modeCheck) &&
            ++accesses_since_check >= check_every) {
            accesses_since_check = 0;
            system.checkInvariants();
        }
    }
    if (samples == 0)
        sample_footprint();
    if (system.harmfulTracker())
        system.harmfulTracker()->finish();

    if (obs_on) {
        // Final flush after the harmful tracker's classification so the
        // last interval carries those counters too. Zero-length flushes
        // (boundary exactly hit) are ignored by the registry.
        Cycles end_cycle = 0;
        for (const auto &slot : cores)
            end_cycle = std::max(end_cycle, slot.model.now());
        registry.closeInterval(obs_accesses, end_cycle);
    }

    RunResult out;
    out.workload = workload.name();
    out.scheme = scheme;

    Cycles exec = 0;
    std::uint64_t instr = 0;
    for (const auto &slot : cores) {
        exec = std::max(exec, slot.model.now() - slot.measureStart);
        instr += slot.model.instructions() - slot.measureStartInstr;
    }
    out.execCycles = exec;
    out.instructions = instr;
    out.ipc = exec ? static_cast<double>(instr) /
                         static_cast<double>(exec) / cores.size()
                   : 0.0;

    addCounterFields(system, out);
    if (HarmfulTracker *t = system.harmfulTracker()) {
        out.harmfulMigrations = t->harmfulMigrations();
        out.totalTrackedMigrations = t->totalMigrations();
    }
    out.pageFootprintFrac = samples ? page_frac_sum / samples : 0.0;
    out.lineFootprintFrac = samples ? line_frac_sum / samples : 0.0;

    if (obs_on) {
        StatsJsonMeta meta;
        meta.workload = workload.name();
        meta.scheme = std::string(toString(scheme));
        meta.seed = run.seed;
        meta.warmupRefsPerCore = run.warmupRefsPerCore;
        meta.measureRefsPerCore = run.measureRefsPerCore;
        meta.intervalAccesses = obs_interval;
        meta.configHash = fnv1aHex(cfg.measurementKey());
        writeStatsJson(stats_path,
                       renderStatsJson(meta, out, registry, trace.get()));
    }
    return out;
}

} // namespace pipm
