/**
 * @file
 * Figure 12: stalling cycles of inter-host memory accesses, normalised
 * to the Native CXL-DSM total execution time (core-cycles).
 *
 * Paper reference points: Nomad 19.1%, Memtis 16.6%, HeMem 16.8%,
 * OS-skew 8.7%, HW-static 4.1%, PIPM 1.5% on average.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig12_interhost_stalls",
        "Fig. 12: inter-host stalling cycles normalised to Native.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const SystemConfig cfg = defaultConfig();
    const unsigned total_cores = cfg.numHosts * cfg.coresPerHost;
    const Scheme schemes[] = {Scheme::nomad,    Scheme::memtis,
                              Scheme::hemem,    Scheme::osSkew,
                              Scheme::hwStatic, Scheme::pipmFull};

    TablePrinter table("Figure 12: inter-host access stall cycles / "
                       "native execution time");
    std::vector<std::string> header = {"workload"};
    for (Scheme s : schemes)
        header.push_back(std::string(toString(s)));
    table.header(header);

    const auto workloads = table1Workloads(cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        sweep.add(cfg, Scheme::native, *workload);
        for (Scheme s : schemes)
            sweep.add(cfg, s, *workload);
    }
    const std::vector<RunResult> results = sweep.run();

    // One block per workload: native, then schemes in order.
    std::vector<double> sums(std::size(schemes), 0.0);
    unsigned count = 0;
    for (std::size_t b = 0; b < results.size();
         b += 1 + std::size(schemes)) {
        const RunResult &native = results[b];
        std::vector<std::string> row = {native.workload};
        for (std::size_t i = 0; i < std::size(schemes); ++i) {
            const RunResult &r = results[b + 1 + i];
            const double frac =
                static_cast<double>(r.interHostStallCycles) /
                (static_cast<double>(native.execCycles) * total_cores);
            sums[i] += frac;
            row.push_back(TablePrinter::pct(frac));
        }
        table.row(row);
        ++count;
    }
    std::vector<std::string> avg = {"average"};
    for (double s : sums)
        avg.push_back(TablePrinter::pct(s / count));
    table.row(avg);
    table.print(std::cout);
    std::cout << "Paper: Nomad 19.1% / Memtis 16.6% / HeMem 16.8% / "
                 "OS-skew 8.7% / HW-static 4.1% / PIPM 1.5%.\n";
    return 0;
}
