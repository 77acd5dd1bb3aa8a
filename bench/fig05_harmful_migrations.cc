/**
 * @file
 * Figure 5: percentage of harmful page migrations under Nomad and Memtis
 * (default 10 ms interval). A migration is harmful when the inter-host
 * penalty it imposes on other hosts (plus its kernel cost) outweighs the
 * local-access benefit (§3.2.1).
 *
 * Paper reference points: 34% (Nomad) and 29% (Memtis) on average.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig05_harmful_migrations",
        "Fig. 5: percentage of harmful page migrations under Nomad and Memtis.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const SystemConfig cfg = defaultConfig();

    TablePrinter table("Figure 5: percentage of harmful page migrations");
    table.header({"workload", "nomad", "memtis"});
    const auto workloads = table1Workloads(cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        sweep.add(cfg, Scheme::nomad, *workload);
        sweep.add(cfg, Scheme::memtis, *workload);
    }
    const std::vector<RunResult> results = sweep.run();

    // One (nomad, memtis) pair per workload, in add() order.
    std::vector<double> nomad_pct, memtis_pct;
    for (std::size_t b = 0; b < results.size(); b += 2) {
        const RunResult &nomad = results[b];
        const RunResult &memtis = results[b + 1];
        nomad_pct.push_back(nomad.harmfulFraction());
        memtis_pct.push_back(memtis.harmfulFraction());
        table.row({nomad.workload,
                   TablePrinter::pct(nomad.harmfulFraction()),
                   TablePrinter::pct(memtis.harmfulFraction())});
    }
    double nomad_avg = 0, memtis_avg = 0;
    for (std::size_t i = 0; i < nomad_pct.size(); ++i) {
        nomad_avg += nomad_pct[i];
        memtis_avg += memtis_pct[i];
    }
    nomad_avg /= static_cast<double>(nomad_pct.size());
    memtis_avg /= static_cast<double>(memtis_pct.size());
    table.row({"average", TablePrinter::pct(nomad_avg),
               TablePrinter::pct(memtis_avg)});
    table.print(std::cout);
    std::cout << "Paper: Nomad 34% and Memtis 29% harmful on average.\n";
    return 0;
}
