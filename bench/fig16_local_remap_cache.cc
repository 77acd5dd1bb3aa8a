/**
 * @file
 * Figure 16: PIPM performance versus local remapping cache size,
 * normalised to an infinite local remapping cache. The local remapping
 * lookup is on the critical path of every shared LLC miss, so this cache
 * matters more than the global one (Fig. 17).
 *
 * Paper reference point: a 1 MB local remapping cache reaches 97.8% of
 * the infinite-cache performance.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig16_local_remap_cache",
        "Fig. 16: PIPM performance versus local remapping cache size.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    // Capacities scale with the footprint (1/footprintScale): the
    // paper's 1 MB point over a 48 GB RSS corresponds to 4 KB over our
    // scaled heaps, preserving the entries-to-pages ratio under study.
    const std::uint64_t sizes[] = {1ull << 10, 4ull << 10, 16ull << 10};

    TablePrinter table("Figure 16: performance vs local remapping cache "
                       "size (normalised to infinite)");
    table.header({"workload", "1KB (~256KB)", "4KB (~1MB)",
                  "16KB (~4MB)", "infinite"});

    const SystemConfig base_cfg = defaultConfig();
    const auto workloads = table1Workloads(base_cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        SystemConfig inf_cfg = base_cfg;
        inf_cfg.pipm.infiniteLocalCache = true;
        sweep.add(inf_cfg, Scheme::pipmFull, *workload);
        for (std::uint64_t size : sizes) {
            SystemConfig cfg = base_cfg;
            cfg.pipm.localCacheBytes = size;
            sweep.add(cfg, Scheme::pipmFull, *workload);
        }
    }
    const std::vector<RunResult> results = sweep.run();

    // One block per workload: the infinite cache, then sizes in order.
    std::vector<std::vector<double>> cols(std::size(sizes));
    for (std::size_t b = 0; b < results.size(); b += 1 + std::size(sizes)) {
        const RunResult &infinite = results[b];
        std::vector<std::string> row = {infinite.workload};
        for (std::size_t i = 0; i < std::size(sizes); ++i) {
            // The share of the infinite cache's performance.
            const double rel = speedupOver(infinite, results[b + 1 + i]);
            cols[i].push_back(rel);
            row.push_back(TablePrinter::pct(rel));
        }
        row.push_back("100.0%");
        table.row(row);
    }
    std::vector<std::string> avg = {"geomean"};
    for (auto &col : cols)
        avg.push_back(TablePrinter::pct(geomean(col)));
    avg.push_back("100.0%");
    table.row(avg);
    table.print(std::cout);
    std::cout << "Paper: 1MB local remapping cache achieves 97.8% of "
                 "infinite.\n";
    return 0;
}
