/**
 * @file
 * Figure 13: average ratio of per-host local memory footprint to total
 * memory footprint. For PIPM, both the page-level allocation (local
 * frames reserved) and the line-level footprint (lines actually
 * migrated) are reported, as in the paper's PIPM-page / PIPM-line bars.
 *
 * Paper reference points: Nomad 7.4%, HeMem 6.0%, Memtis 5.2%, OS-skew
 * 4.6%, HW-static fixed 25%, PIPM-page 7.3%, PIPM-line 5.5%.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig13_memory_footprint",
        "Fig. 13: per-host local memory footprint ratios.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const SystemConfig cfg = defaultConfig();
    const Scheme schemes[] = {Scheme::nomad, Scheme::hemem,
                              Scheme::memtis, Scheme::osSkew,
                              Scheme::hwStatic};

    TablePrinter table("Figure 13: per-host local footprint / total "
                       "footprint");
    table.header({"workload", "nomad", "hemem", "memtis", "os-skew",
                  "hw-static", "pipm-page", "pipm-line"});

    const auto workloads = table1Workloads(cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads) {
        for (Scheme s : schemes)
            sweep.add(cfg, s, *workload);
        sweep.add(cfg, Scheme::pipmFull, *workload);
    }
    const std::vector<RunResult> results = sweep.run();

    // One block per workload: schemes in order, then pipm.
    std::vector<double> sums(std::size(schemes) + 2, 0.0);
    unsigned count = 0;
    for (std::size_t b = 0; b < results.size();
         b += std::size(schemes) + 1) {
        std::vector<std::string> row = {results[b].workload};
        for (std::size_t i = 0; i < std::size(schemes); ++i) {
            const RunResult &r = results[b + i];
            sums[i] += r.pageFootprintFrac;
            row.push_back(TablePrinter::pct(r.pageFootprintFrac));
        }
        const RunResult &pipm = results[b + std::size(schemes)];
        sums[std::size(schemes)] += pipm.pageFootprintFrac;
        sums[std::size(schemes) + 1] += pipm.lineFootprintFrac;
        row.push_back(TablePrinter::pct(pipm.pageFootprintFrac));
        row.push_back(TablePrinter::pct(pipm.lineFootprintFrac));
        table.row(row);
        ++count;
    }
    std::vector<std::string> avg = {"average"};
    for (double s : sums)
        avg.push_back(TablePrinter::pct(s / count));
    table.row(avg);
    table.print(std::cout);
    std::cout << "Paper: Nomad 7.4% / HeMem 6.0% / Memtis 5.2% / OS-skew "
                 "4.6% / HW-static 25% / PIPM-page 7.3% / PIPM-line "
                 "5.5%.\n";
    return 0;
}
