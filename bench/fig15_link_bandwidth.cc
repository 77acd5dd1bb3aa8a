/**
 * @file
 * Figure 15: PIPM's speedup over Native CXL-DSM under different CXL link
 * bandwidths — x8 lanes (2.5 GB/s effective), x16 (5 GB/s, default) and
 * x32 (10 GB/s).
 *
 * Paper reference points: at half bandwidth PIPM's gain grows by 48.4%
 * (up to 96%) relative to x16; at double bandwidth it retains 97.9% of
 * the x16 improvement (workloads remain latency-bound).
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig15_link_bandwidth",
        "Fig. 15: PIPM speedup under different CXL link bandwidths.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    struct Point
    {
        const char *label;
        double bytesPerNs;
    };
    const Point points[] = {{"x8 (2.5GB/s)", 2.5},
                            {"x16 (5GB/s)", 5.0},
                            {"x32 (10GB/s)", 10.0}};

    TablePrinter table("Figure 15: PIPM speedup over Native vs CXL link "
                       "bandwidth");
    table.header({"workload", points[0].label, points[1].label,
                  points[2].label});

    const SystemConfig base_cfg = defaultConfig();
    const auto workloads = table1Workloads(base_cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        for (const Point &p : points) {
            SystemConfig cfg = base_cfg;
            cfg.link.bytesPerNs = p.bytesPerNs;
            sweep.add(cfg, Scheme::native, *workload);
            sweep.add(cfg, Scheme::pipmFull, *workload);
        }
    }
    const std::vector<RunResult> results = sweep.run();

    // Per workload, a (native, pipm) pair per point, in add() order.
    std::vector<std::vector<double>> cols(3);
    for (std::size_t b = 0; b < results.size(); b += 6) {
        std::vector<std::string> row = {results[b].workload};
        for (std::size_t i = 0; i < 3; ++i) {
            const double s = speedupOver(results[b + 2 * i],
                                         results[b + 2 * i + 1]);
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
    std::cout << "Paper: x8 gain +48.4% (up to +96%) vs x16; x32 retains "
                 "97.9% of the x16 improvement.\n";
    return 0;
}
