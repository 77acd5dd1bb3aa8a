/**
 * @file
 * Figure 11: local memory hit rates — the fraction of shared LLC misses
 * served from the accessing host's own local DRAM (misses otherwise go
 * to CXL memory or another host's memory).
 *
 * Paper reference points: PIPM 56.1% average vs Nomad 26.5%, Memtis
 * 31.0%, HeMem 28.1%, HW-static 21.6%; OS-skew relatively high.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig11_local_hit_rate",
        "Fig. 11: local memory hit rates per scheme and workload.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const SystemConfig cfg = defaultConfig();
    const Scheme schemes[] = {Scheme::nomad,    Scheme::memtis,
                              Scheme::hemem,    Scheme::osSkew,
                              Scheme::hwStatic, Scheme::pipmFull};

    TablePrinter table("Figure 11: local memory hit rates");
    std::vector<std::string> header = {"workload"};
    for (Scheme s : schemes)
        header.push_back(std::string(toString(s)));
    table.header(header);

    const auto workloads = table1Workloads(cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads)
        for (Scheme s : schemes)
            sweep.add(cfg, s, *workload);
    const std::vector<RunResult> results = sweep.run();

    // One block of runs per workload, in schemes order.
    std::vector<double> sums(std::size(schemes), 0.0);
    unsigned count = 0;
    for (std::size_t b = 0; b < results.size(); b += std::size(schemes)) {
        std::vector<std::string> row = {results[b].workload};
        for (std::size_t i = 0; i < std::size(schemes); ++i) {
            const RunResult &r = results[b + i];
            sums[i] += r.localHitRate();
            row.push_back(TablePrinter::pct(r.localHitRate()));
        }
        table.row(row);
        ++count;
    }
    std::vector<std::string> avg = {"average"};
    for (double s : sums)
        avg.push_back(TablePrinter::pct(s / count));
    table.row(avg);
    table.print(std::cout);
    std::cout << "Paper: PIPM 56.1% avg vs Nomad 26.5% / Memtis 31.0% / "
                 "HeMem 28.1% / HW-static 21.6%.\n";
    return 0;
}
