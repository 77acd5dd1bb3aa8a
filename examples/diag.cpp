/**
 * @file
 * Diagnostics utility: runs one (workload, scheme) combination without
 * the measurement harness and dumps every internal stat group — the
 * system counters, cache/LLC, link, DRAM, PIPM and remapping-cache
 * stats. Useful when investigating where cycles go under a new
 * configuration or workload.
 *
 * Usage: example_diag [workload] [refs-per-core] [scheme] [faults]
 *
 * Passing "faults" as the fourth argument enables the paper-default
 * fault-injection schedule (CXL link CRC errors, retraining windows,
 * poisoned lines, migration aborts) and dumps the fault stats too.
 * A reference count that is not a positive whole decimal number, an
 * unknown scheme, a fourth argument other than "faults", or extra
 * arguments print usage and exit 2.
 */
#include <iostream>
#include <optional>
#include <string>

#include "common/config.hh"
#include "common/env.hh"
#include "sim/core.hh"
#include "sim/system.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    using namespace pipm;
    SystemConfig cfg = defaultConfig();
    auto wl = workloadByName(argc > 1 ? argv[1] : "pr", cfg.footprintScale);
    const std::optional<std::uint64_t> refs =
        argc > 2 ? parseU64(argv[2]) : std::optional<std::uint64_t>(50'000);
    const std::optional<Scheme> scheme =
        argc > 3 ? schemeFromString(argv[3]) : Scheme::native;
    if (!refs || *refs == 0 || !scheme || argc > 5 ||
        (argc > 4 && std::string(argv[4]) != "faults")) {
        std::cerr << "usage: example_diag [workload] [refs-per-core] "
                     "[scheme] [faults]\nschemes:";
        for (Scheme s : allSchemesExtended)
            std::cerr << ' ' << toString(s);
        std::cerr << '\n';
        return 2;
    }
    if (argc > 4)
        cfg.fault = paperFaultConfig();
    MultiHostSystem sys(cfg, *scheme, *wl, 42);

    std::vector<OooCore> cores;
    std::vector<std::unique_ptr<CoreTrace>> traces;
    for (unsigned h = 0; h < cfg.numHosts; ++h) {
        for (unsigned c = 0; c < cfg.coresPerHost; ++c) {
            cores.emplace_back(cfg.core);
            traces.push_back(wl->makeTrace(h, c, cfg.coresPerHost,
                                           cfg.numHosts, 42 + h * 64 + c));
        }
    }
    std::vector<std::uint64_t> done(cores.size(), 0);
    std::uint64_t finished = 0;
    while (finished < cores.size()) {
        std::size_t best = 0;
        Cycles bt = maxCycles;
        for (std::size_t i = 0; i < cores.size(); ++i) {
            if (done[i] < *refs && cores[i].now() < bt) {
                bt = cores[i].now();
                best = i;
            }
        }
        auto &core = cores[best];
        const MemRef ref = traces[best]->next();
        core.advanceGap(ref.gap);
        sys.tick(core.now());
        const auto h = static_cast<HostId>(best / cfg.coresPerHost);
        const auto c = static_cast<CoreId>(best % cfg.coresPerHost);
        auto res = sys.access(h, c, ref, core.now());
        if (res.stall)
            core.stall(res.stall);
        if (ref.op == MemOp::read)
            core.issueLoad(res.latency);
        else
            core.issueStore(res.latency);
        if (++done[best] == *refs)
            ++finished;
    }
    Cycles maxc = 0;
    std::uint64_t instr = 0;
    for (auto &core : cores) {
        core.drainAll();
        maxc = std::max(maxc, core.now());
        instr += core.instructions();
    }
    std::cout << "cycles=" << maxc << " instr=" << instr
              << " ipc/core=" << double(instr) / maxc / cores.size()
              << "\n\n";
    std::cout << sys.stats().dump() << '\n';
    std::cout << sys.hierarchy(0).stats().dump() << '\n';
    std::cout << sys.link(0).stats().dump() << '\n';
    std::cout << sys.cxlDram().stats().dump() << '\n';
    std::cout << sys.localDram(0).stats().dump() << '\n';
    if (sys.pipmState())
        std::cout << sys.pipmState()->stats().dump() << '\n';
    if (sys.localRemapCache(0))
        std::cout << sys.localRemapCache(0)->stats().dump() << '\n';
    if (sys.globalRemapCache())
        std::cout << sys.globalRemapCache()->stats().dump() << '\n';
    if (sys.faultInjector())
        std::cout << sys.faultInjector()->stats().dump() << '\n';
    return 0;
}
