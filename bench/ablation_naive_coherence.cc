/**
 * @file
 * Ablation (§4.3.1): the naive coherence solution vs the PIPM coherence
 * design. Both use identical partial/incremental migration policy and
 * mechanism; the naive variant lacks the ME/I' states, so every local
 * access to a migrated line still pays a CXL link round trip, a device
 * directory lookup and a CXL memory read to check the in-memory bit
 * (Fig. 8) — "negating the benefits of page migration for local
 * accesses". This harness quantifies that claim.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "ablation_naive_coherence",
        "Ablation (4.3.1): naive coherence vs the PIPM ME/I' design.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const SystemConfig cfg = defaultConfig();

    TablePrinter table("Ablation: naive 1-bit coherence (Fig. 8) vs PIPM "
                       "coherence (Fig. 9), speedup over Native");
    table.header({"workload", "pipm-naive", "pipm", "PIPM advantage"});
    const auto workloads = table1Workloads(cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        sweep.add(cfg, Scheme::native, *workload);
        sweep.add(cfg, Scheme::pipmNaive, *workload);
        sweep.add(cfg, Scheme::pipmFull, *workload);
    }
    const std::vector<RunResult> results = sweep.run();

    // One (native, naive, pipm) triple per workload, in add() order.
    std::vector<double> naive_col, pipm_col;
    for (std::size_t b = 0; b < results.size(); b += 3) {
        const RunResult &native = results[b];
        const RunResult &naive = results[b + 1];
        const RunResult &pipm = results[b + 2];
        const double s_naive = speedupOver(native, naive);
        const double s_pipm = speedupOver(native, pipm);
        naive_col.push_back(s_naive);
        pipm_col.push_back(s_pipm);
        table.row({native.workload,
                   TablePrinter::num(s_naive, 2) + "x",
                   TablePrinter::num(s_pipm, 2) + "x",
                   TablePrinter::pct(s_pipm / s_naive - 1.0)});
    }
    table.row({"geomean", TablePrinter::num(geomean(naive_col), 2) + "x",
               TablePrinter::num(geomean(pipm_col), 2) + "x",
               TablePrinter::pct(geomean(pipm_col) / geomean(naive_col) -
                                 1.0)});
    table.print(std::cout);
    std::cout << "Paper (qualitative, §4.3.1): the naive design's device "
                 "round trips on local accesses negate the migration "
                 "benefit; the ME/I' states remove them.\n";
    return 0;
}
