/**
 * @file
 * Ablation (§4.5): host-count scalability of the majority vote. The
 * paper argues the vote "continues to suppress performance-degrading
 * migrations and consistently outperforms prior designs" as hosts
 * increase; this harness compares PIPM and Memtis against Native at 2,
 * 4 and 8 hosts on a workload subset. Total compute scales with hosts
 * (4 cores each); the CXL pool and per-host DRAM follow Table 2.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "ablation_scalability",
        "Ablation (4.5): host-count scalability of the majority vote.");
    using namespace pipm;
    using namespace pipmbench;

    const Options opts = optionsFromEnv();
    const unsigned host_counts[] = {2, 4, 8};
    const char *names[] = {"pr", "tc", "tpcc"};

    TablePrinter table("Ablation: host-count scaling (speedup over "
                       "Native at the same host count)");
    table.header({"workload", "hosts", "memtis", "pipm",
                  "pipm local hit rate"});

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool
    // (the workload objects must outlive the sweep).
    Sweep sweep(opts);
    std::vector<std::unique_ptr<Workload>> keep;
    for (const char *name : names) {
        for (unsigned hosts : host_counts) {
            SystemConfig cfg = defaultConfig();
            cfg.numHosts = hosts;
            keep.push_back(workloadByName(name, cfg.footprintScale));
            const Workload &w = *keep.back();
            sweep.add(cfg, Scheme::native, w);
            sweep.add(cfg, Scheme::memtis, w);
            sweep.add(cfg, Scheme::pipmFull, w);
        }
    }
    const std::vector<RunResult> results = sweep.run();

    // One (native, memtis, pipm) triple per row, in add() order.
    std::size_t b = 0;
    for (const char *name : names) {
        for (unsigned hosts : host_counts) {
            const RunResult &native = results[b];
            const RunResult &memtis = results[b + 1];
            const RunResult &pipm = results[b + 2];
            b += 3;
            table.row({name, std::to_string(hosts),
                       TablePrinter::num(speedupOver(native, memtis), 2) +
                           "x",
                       TablePrinter::num(speedupOver(native, pipm), 2) +
                           "x",
                       TablePrinter::pct(pipm.localHitRate())});
        }
    }
    table.print(std::cout);
    std::cout << "Paper (§4.5, qualitative): the vote keeps suppressing "
                 "harmful migrations and PIPM keeps outperforming prior "
                 "designs as hosts increase.\n";
    return 0;
}
