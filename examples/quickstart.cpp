/**
 * @file
 * Quickstart: build the Table 2 machine, run one workload under Native
 * CXL-DSM and under PIPM, and print the headline comparison.
 *
 * Usage: example_quickstart [workload] [refs-per-core]
 */

#include <iostream>
#include <optional>
#include <string>

#include "common/config.hh"
#include "common/env.hh"
#include "common/table_printer.hh"
#include "sim/runner.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    using namespace pipm;

    const std::string name = argc > 1 ? argv[1] : "pr";
    const std::optional<std::uint64_t> refs =
        argc > 2 ? parseU64(argv[2])
                 : std::optional<std::uint64_t>(150'000);
    if (!refs) {
        std::cerr << "usage: example_quickstart [workload] [refs-per-core]\n";
        return 2;
    }

    SystemConfig cfg = defaultConfig();
    auto workload = workloadByName(name, cfg.footprintScale);

    RunConfig run;
    run.warmupRefsPerCore = *refs / 4;
    run.measureRefsPerCore = *refs;

    std::cout << "PIPM quickstart: workload '" << name << "' ("
              << workload->suite() << ", "
              << (workload->footprintBytes() >> 30) << " GB footprint, "
              << "scaled 1/" << cfg.footprintScale << ")\n\n";
    std::cout << cfg.describe() << '\n';

    const RunResult native =
        runExperiment(cfg, Scheme::native, *workload, run);
    const RunResult pipm =
        runExperiment(cfg, Scheme::pipmFull, *workload, run);

    TablePrinter table("native CXL-DSM vs PIPM");
    table.header({"metric", "native", "pipm"});
    table.row({"exec cycles", std::to_string(native.execCycles),
               std::to_string(pipm.execCycles)});
    table.row({"IPC/core", TablePrinter::num(native.ipc, 3),
               TablePrinter::num(pipm.ipc, 3)});
    table.row({"local memory hit rate",
               TablePrinter::pct(native.localHitRate()),
               TablePrinter::pct(pipm.localHitRate())});
    table.row({"inter-host accesses",
               std::to_string(native.interHostAccesses),
               std::to_string(pipm.interHostAccesses)});
    table.row({"lines migrated in", "-",
               std::to_string(pipm.pipmLinesIn)});
    table.row({"lines migrated back", "-",
               std::to_string(pipm.pipmLinesBack)});
    table.row({"pages promoted", "-",
               std::to_string(pipm.pipmPromotions)});
    table.print(std::cout);

    const double speedup = pipm.execCycles
                               ? static_cast<double>(native.execCycles) /
                                     static_cast<double>(pipm.execCycles)
                               : 0.0;
    std::cout << "PIPM speedup over native CXL-DSM: "
              << TablePrinter::num(speedup, 2) << "x\n";
    return 0;
}
