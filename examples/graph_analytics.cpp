/**
 * @file
 * Graph analytics on multi-host CXL-DSM: runs a PageRank-style workload
 * (partitioned vertex set, iterative partition scans, power-law hubs)
 * under every memory-management scheme and reports the Figure-10-style
 * comparison plus the memory-system detail behind it.
 *
 * This is the scenario the paper's introduction motivates: worker
 * threads with strong per-partition locality, where partial and
 * incremental migration shines, while hub pages shared by every host
 * punish side-effect-blind whole-page migration.
 */

#include <iostream>
#include <optional>

#include "common/config.hh"
#include "common/env.hh"
#include "common/table_printer.hh"
#include "sim/runner.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    using namespace pipm;

    const std::optional<std::uint64_t> refs =
        argc > 1 ? parseU64(argv[1])
                 : std::optional<std::uint64_t>(120'000);
    if (!refs) {
        std::cerr << "usage: example_graph_analytics [refs-per-core]\n";
        return 2;
    }

    SystemConfig cfg = defaultConfig();
    auto workload = workloadByName("pr", cfg.footprintScale);

    RunConfig run;
    run.warmupRefsPerCore = *refs / 4;
    run.measureRefsPerCore = *refs;

    std::cout << "Multi-host graph analytics (PageRank model): "
              << cfg.numHosts << " hosts x " << cfg.coresPerHost
              << " cores, " << (workload->sharedBytes() >> 20)
              << " MB shared graph in CXL-DSM\n\n";

    const RunResult native =
        runExperiment(cfg, Scheme::native, *workload, run);

    TablePrinter table("scheme comparison (PageRank)");
    table.header({"scheme", "speedup", "local hit rate",
                  "inter-host accesses", "migrations"});
    for (Scheme s : allSchemes) {
        const RunResult r =
            s == Scheme::native
                ? native
                : runExperiment(cfg, s, *workload, run);
        const double speedup =
            static_cast<double>(native.execCycles) /
            static_cast<double>(r.execCycles);
        std::string migrations = "-";
        if (usesOsMigration(s)) {
            migrations = std::to_string(r.osMigrations) + " pages";
        } else if (usesPipmMechanism(s)) {
            migrations = std::to_string(r.pipmLinesIn) + " lines in, " +
                         std::to_string(r.pipmLinesBack) + " back";
        }
        table.row({std::string(toString(s)),
                   TablePrinter::num(speedup, 2) + "x",
                   TablePrinter::pct(r.localHitRate()),
                   std::to_string(r.interHostAccesses), migrations});
    }
    table.print(std::cout);

    std::cout << "Reading the table: PIPM converts partition-scan misses "
                 "into local DRAM hits\nwithout page-table updates or "
                 "whole-page copies, while the majority vote keeps\n"
                 "hub pages (accessed by every host) in CXL memory where "
                 "they stay cacheable\nfor everyone.\n";
    return 0;
}
