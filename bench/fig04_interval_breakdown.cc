/**
 * @file
 * Figure 4: execution-time breakdown of Nomad and Memtis at 100 ms,
 * 10 ms and 1 ms migration intervals, normalised to the no-migration
 * (Native) baseline. Each bar splits into the base execution, the
 * migration-management overhead (kernel stalls, shootdowns) and the
 * page-transfer overhead.
 *
 * Paper reference points: at 100 ms Nomad +10.5% / Memtis -1.4%; at
 * 10 ms both improve (-4.8% / -12.2%); at 1 ms both degrade (+26.1% /
 * +15.4%) as management and transfer overheads dominate (Take-aways 3-4).
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "fig04_interval_breakdown",
        "Fig. 4: execution-time breakdown of Nomad/Memtis migration intervals.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const double intervals_ms[] = {100.0, 10.0, 1.0};
    const Scheme schemes[] = {Scheme::nomad, Scheme::memtis};

    TablePrinter table(
        "Figure 4: normalised execution time breakdown vs migration "
        "interval (total = base + mgmt + transfer)");
    table.header({"workload", "scheme", "interval", "total", "base",
                  "mgmt", "transfer", "migrations"});

    const SystemConfig base_cfg = defaultConfig();
    const unsigned total_cores = base_cfg.numHosts * base_cfg.coresPerHost;

    const auto workloads = table1Workloads(base_cfg.footprintScale);

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool;
    // each bar pairs a run with its workload's native baseline.
    struct Bar
    {
        std::size_t native, run;
        double intervalMs;
    };
    Sweep sweep(opts);
    std::vector<Bar> bars;
    for (const auto &workload : workloads) {
        const std::size_t native =
            sweep.add(base_cfg, Scheme::native, *workload);
        for (Scheme s : schemes) {
            for (double interval : intervals_ms) {
                SystemConfig cfg = base_cfg;
                cfg.osMigration.intervalMs = interval;
                bars.push_back(
                    {native, sweep.add(cfg, s, *workload), interval});
            }
        }
    }
    const std::vector<RunResult> results = sweep.run();

    for (const Bar &bar : bars) {
        const RunResult &native = results[bar.native];
        const RunResult &r = results[bar.run];
        const double total = static_cast<double>(r.execCycles) /
                             static_cast<double>(native.execCycles);
        // Management: kernel stalls summed over cores, expressed as a
        // fraction of the native run's core-cycles.
        const double mgmt =
            static_cast<double>(r.mgmtStallCycles) /
            (static_cast<double>(native.execCycles) * total_cores);
        // Transfer: the link time consumed by page copies.
        const double bytes_per_cycle = base_cfg.link.bytesPerNs / cyclesPerNs;
        const double transfer =
            static_cast<double>(r.migrationTransferBytes /
                                base_cfg.migrationBytesScale) /
            bytes_per_cycle / base_cfg.numHosts /
            static_cast<double>(native.execCycles);
        const double base_part = std::max(0.0, total - mgmt - transfer);

        table.row({r.workload, std::string(toString(r.scheme)),
                   TablePrinter::num(bar.intervalMs, 0) + "ms",
                   TablePrinter::num(total, 2),
                   TablePrinter::num(base_part, 2),
                   TablePrinter::num(mgmt, 3),
                   TablePrinter::num(transfer, 3),
                   std::to_string(r.osMigrations + r.osDemotions)});
    }
    table.print(std::cout);
    std::cout << "Paper: 100ms Nomad +10.5% / Memtis -1.4%; 10ms -4.8% / "
                 "-12.2%; 1ms +26.1% / +15.4% (overheads dominate).\n";
    return 0;
}
