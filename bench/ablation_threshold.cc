/**
 * @file
 * Ablation (§5.1.4): sensitivity of PIPM to the majority-vote migration
 * threshold. The paper reports "similar performance with threshold
 * ranging from 4 to 16"; this harness sweeps {2, 4, 8, 16, 32} on a
 * representative workload subset.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "ablation_threshold",
        "Ablation (5.1.4): migration-threshold sensitivity sweep.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const unsigned thresholds[] = {2, 4, 8, 16, 32};
    const char *names[] = {"pr", "bc", "streamcluster", "tpcc", "ycsb"};

    TablePrinter table("Ablation: PIPM majority-vote threshold "
                       "(speedup over Native)");
    std::vector<std::string> header = {"workload"};
    for (unsigned t : thresholds)
        header.push_back("t=" + std::to_string(t));
    table.header(header);

    const SystemConfig base_cfg = defaultConfig();

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool
    // (the workload objects must outlive the sweep).
    Sweep sweep(opts);
    std::vector<std::unique_ptr<Workload>> keep;
    for (const char *name : names) {
        keep.push_back(workloadByName(name, base_cfg.footprintScale));
        const Workload &w = *keep.back();
        sweep.add(base_cfg, Scheme::native, w);
        for (unsigned t : thresholds) {
            SystemConfig cfg = base_cfg;
            cfg.pipm.migrationThreshold = t;
            sweep.add(cfg, Scheme::pipmFull, w);
        }
    }
    const std::vector<RunResult> results = sweep.run();

    // One block per workload: native, then thresholds in order.
    std::vector<std::vector<double>> cols(std::size(thresholds));
    for (std::size_t b = 0; b < results.size();
         b += 1 + std::size(thresholds)) {
        const RunResult &native = results[b];
        std::vector<std::string> row = {native.workload};
        for (std::size_t i = 0; i < std::size(thresholds); ++i) {
            const double s = speedupOver(native, results[b + 1 + i]);
            cols[i].push_back(s);
            row.push_back(TablePrinter::num(s, 2) + "x");
        }
        table.row(row);
    }
    std::vector<std::string> avg = {"geomean"};
    for (auto &col : cols)
        avg.push_back(TablePrinter::num(geomean(col), 2) + "x");
    table.row(avg);
    table.print(std::cout);
    std::cout << "Paper: thresholds 4..16 perform similarly (the default "
                 "is 8).\n";
    return 0;
}
