/**
 * @file
 * Figure 10: end-to-end performance of every scheme on every Table 1
 * workload, normalised to Native CXL-DSM.
 *
 * Paper reference points: PIPM 1.86x average (up to 2.54x) and 0.73x of
 * the Local-only ideal; OS-skew +31.5%; HW-static +15.7%; Nomad/Memtis/
 * HeMem marginal (down to -18% on some workloads). Graph workloads gain
 * the most, databases the least.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig10_end_to_end",
        "Fig. 10: end-to-end performance of every scheme on every workload.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    SystemConfig cfg = defaultConfig();
    const bool faulty = applyEnvFaults(cfg, opts.seed);

    TablePrinter table(
        "Figure 10: end-to-end speedup over Native CXL-DSM");
    std::vector<std::string> header = {"workload"};
    for (Scheme s : allSchemes)
        header.push_back(std::string(toString(s)));
    table.header(header);

    const auto workloads = table1Workloads(cfg.footprintScale);

    // Enqueue the whole matrix up front so the cache misses run on the
    // PIPM_BENCH_JOBS pool.
    Sweep sweep(opts);
    for (const auto &workload : workloads)
        for (Scheme s : allSchemes)
            sweep.add(cfg, s, *workload);
    const std::vector<RunResult> results = sweep.run();

    // One block of allSchemes runs per workload, native first.
    static_assert(allSchemes.front() == Scheme::native);
    std::vector<std::vector<double>> columns(allSchemes.size());
    RunResult faultTotals;
    for (std::size_t b = 0; b < results.size(); b += allSchemes.size()) {
        const RunResult &native = results[b];
        std::vector<std::string> row = {native.workload};
        for (std::size_t i = 0; i < allSchemes.size(); ++i) {
            const RunResult &r = results[b + i];
            const double speedup = speedupOver(native, r);
            columns[i].push_back(speedup);
            row.push_back(TablePrinter::num(speedup, 2) + "x");
            for (const RunResultField &f : runResultFields) {
                if (f.fault)
                    faultTotals.*f.u64 += r.*f.u64;
            }
        }
        table.row(row);
    }

    std::vector<std::string> mean_row = {"geomean"};
    for (auto &col : columns)
        mean_row.push_back(TablePrinter::num(geomean(col), 2) + "x");
    table.row(mean_row);
    table.print(std::cout);

    if (faulty) {
        std::cout << "Fault injection (PIPM_BENCH_FAULTS), totals across "
                     "runs:";
        for (const RunResultField &f : runResultFields) {
            if (f.fault && faultTotals.*f.u64)
                std::cout << ' ' << f.name << '=' << faultTotals.*f.u64;
        }
        std::cout << '\n';
    }

    std::cout << "Paper: PIPM 1.86x avg (max 2.54x) over native; "
                 "0.73x of local-only; OS-skew +31.5%; HW-static +15.7%; "
                 "Nomad/Memtis/HeMem marginal.\n";
    return 0;
}
