/**
 * @file
 * Figure 14: PIPM's speedup over Native CXL-DSM under different CXL link
 * latencies — 50 ns per direction (direct attach, the default) and
 * 100 ns (a configuration with a CXL switch).
 *
 * Paper reference point: at 100 ns, PIPM's improvement grows by 55.7% on
 * average (up to 193.1%) relative to the 50 ns configuration, because
 * local-memory hits avoid ever-more-expensive link crossings.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig14_link_latency",
        "Fig. 14: PIPM speedup under different CXL link latencies.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const double latencies_ns[] = {50.0, 100.0};

    TablePrinter table("Figure 14: PIPM speedup over Native vs CXL link "
                       "latency");
    table.header({"workload", "50ns", "100ns", "extra gain @100ns"});

    const SystemConfig base_cfg = defaultConfig();
    const auto workloads = table1Workloads(base_cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        for (double latency : latencies_ns) {
            SystemConfig cfg = base_cfg;
            cfg.link.latencyNs = latency;
            sweep.add(cfg, Scheme::native, *workload);
            sweep.add(cfg, Scheme::pipmFull, *workload);
        }
    }
    const std::vector<RunResult> results = sweep.run();

    // Per workload, a (native, pipm) pair per latency, in add() order.
    std::vector<double> base_speedups, high_speedups;
    for (std::size_t b = 0; b < results.size(); b += 4) {
        const double speedups[2] = {
            speedupOver(results[b], results[b + 1]),
            speedupOver(results[b + 2], results[b + 3])};
        base_speedups.push_back(speedups[0]);
        high_speedups.push_back(speedups[1]);
        table.row({results[b].workload,
                   TablePrinter::num(speedups[0], 2) + "x",
                   TablePrinter::num(speedups[1], 2) + "x",
                   TablePrinter::pct(speedups[1] / speedups[0] - 1.0)});
    }
    table.row({"geomean", TablePrinter::num(geomean(base_speedups), 2) +
                              "x",
               TablePrinter::num(geomean(high_speedups), 2) + "x",
               TablePrinter::pct(geomean(high_speedups) /
                                     geomean(base_speedups) -
                                 1.0)});
    table.print(std::cout);
    std::cout << "Paper: +55.7% additional improvement on average (up to "
                 "+193.1%) at 100ns.\n";
    return 0;
}
