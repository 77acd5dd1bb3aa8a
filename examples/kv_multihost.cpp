/**
 * @file
 * A multi-host key-value store (YCSB R:W 4:1 model) on CXL-DSM,
 * exploring how PIPM's migration threshold and the OS schemes' epoch
 * length change the outcome on a scattered, zipfian workload — the
 * hardest case for page migration (§5.2.1: databases gain the least).
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
                 : std::optional<std::uint64_t>(100'000);
    if (!refs) {
        std::cerr << "usage: example_kv_multihost [refs-per-core]\n";
        return 2;
    }

    SystemConfig cfg = defaultConfig();
    auto workload = workloadByName("ycsb", cfg.footprintScale);

    RunConfig run;
    run.warmupRefsPerCore = *refs / 4;
    run.measureRefsPerCore = *refs;

    std::cout << "Multi-host KV store (YCSB R:W 4:1 model): zipfian keys, "
              << cfg.numHosts << " hosts, "
              << (workload->sharedBytes() >> 20) << " MB shared store\n\n";

    const RunResult native =
        runExperiment(cfg, Scheme::native, *workload, run);

    // Sweep PIPM's majority-vote threshold (paper: 4..16 behave alike).
    TablePrinter pipm_table(
        "PIPM migration threshold sweep (speedup over native)");
    pipm_table.header({"threshold", "speedup", "promotions",
                       "revocations", "lines in", "lines back"});
    for (unsigned threshold : {4u, 8u, 16u}) {
        SystemConfig c = cfg;
        c.pipm.migrationThreshold = threshold;
        const RunResult r =
            runExperiment(c, Scheme::pipmFull, *workload, run);
        pipm_table.row({std::to_string(threshold),
                        TablePrinter::num(
                            double(native.execCycles) / r.execCycles, 2) +
                            "x",
                        std::to_string(r.pipmPromotions),
                        std::to_string(r.pipmRevocations),
                        std::to_string(r.pipmLinesIn),
                        std::to_string(r.pipmLinesBack)});
    }
    pipm_table.print(std::cout);

    // Sweep the OS epoch for Memtis (Take-away 3: shorter helps, until
    // management overhead dominates - Take-away 4).
    TablePrinter os_table(
        "Memtis migration interval sweep (speedup over native)");
    os_table.header({"interval", "speedup", "migrations",
                     "mgmt stall cycles"});
    for (double interval_ms : {100.0, 10.0, 1.0}) {
        SystemConfig c = cfg;
        c.osMigration.intervalMs = interval_ms;
        const RunResult r =
            runExperiment(c, Scheme::memtis, *workload, run);
        os_table.row({TablePrinter::num(interval_ms, 0) + "ms",
                      TablePrinter::num(
                          double(native.execCycles) / r.execCycles, 2) +
                          "x",
                      std::to_string(r.osMigrations + r.osDemotions),
                      std::to_string(r.mgmtStallCycles)});
    }
    os_table.print(std::cout);
    return 0;
}
