/**
 * @file
 * Figure 17: PIPM performance versus global remapping cache size,
 * normalised to an infinite global remapping cache. Global remapping
 * lookups occur only when forwarding inter-host accesses, so even a tiny
 * cache suffices.
 *
 * Paper reference point: a 16 KB global remapping cache reaches 99.8% of
 * the infinite-cache performance.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig17_global_remap_cache",
        "Fig. 17: PIPM performance versus global remapping cache size.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    // Capacities scale with the footprint (1/footprintScale): the
    // paper's 16 KB point corresponds to 64 B over our scaled pools.
    const std::uint64_t sizes[] = {64ull, 256ull, 1024ull};

    TablePrinter table("Figure 17: performance vs global remapping cache "
                       "size (normalised to infinite)");
    table.header({"workload", "64B (~16KB)", "256B (~64KB)",
                  "1KB (~256KB)", "infinite"});

    const SystemConfig base_cfg = defaultConfig();
    const auto workloads = table1Workloads(base_cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        SystemConfig inf_cfg = base_cfg;
        inf_cfg.pipm.infiniteGlobalCache = true;
        sweep.add(inf_cfg, Scheme::pipmFull, *workload);
        for (std::uint64_t size : sizes) {
            SystemConfig cfg = base_cfg;
            cfg.pipm.globalCacheBytes = size;
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
    std::cout << "Paper: 16KB global remapping cache achieves 99.8% of "
                 "infinite.\n";
    return 0;
}
