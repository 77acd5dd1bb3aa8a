/**
 * @file
 * Suspicion-schedule verification (DESIGN.md §11): drives the full system
 * with the lease-based failure detector, gray-failure stall windows and
 * the transaction timeout/retry engine layered on the crash schedules of
 * verify_crash. Crashed hosts are reclaimed only when their lease expires
 * (or a retry budget runs out), stalled-but-alive hosts may be falsely
 * suspected and fenced as zombies, and readmission goes through the
 * cold-rejoin path. The last-writer data oracle accepts stale values only
 * for lines the system explicitly reported lost — whether lost to a real
 * crash or to a fence — and the cross-structure invariants (including the
 * deferred-reclaim relaxations) are asserted throughout.
 *
 * Environment:
 *   PIPM_VERIFY_SEED       base seed (default 1; also a CLI argument)
 *   PIPM_VERIFY_SCHEDULES  schedules per scheme (default 4)
 *   PIPM_VERIFY_ACCESSES   accesses per schedule (default 20000)
 */

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/config.hh"
#include "common/table_printer.hh"
#include "verify/fault_schedule.hh"

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: verify_suspicion [--help] [--require-false-suspicion] "
          "[seed]\n"
          "\n"
          "Checks lease-detection (suspect -> fence -> readmit) schedules\n"
          "against a last-writer data oracle and the cross-structure\n"
          "invariants.\n"
          "\n"
          "  seed    base seed (default 1; overrides PIPM_VERIFY_SEED)\n"
          "  --require-false-suspicion\n"
          "          exit nonzero unless at least one alive host was\n"
          "          falsely suspected and fenced (gating runs use this\n"
          "          to prove the zombie path was exercised)\n"
          "\n"
          "Environment:\n"
          "  PIPM_VERIFY_SEED       base seed (default 1)\n"
          "  PIPM_VERIFY_SCHEDULES  schedules per scheme (default 4)\n"
          "  PIPM_VERIFY_ACCESSES   accesses per schedule (default "
          "20000)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pipm;

    auto env_u64 = [](const char *name, std::uint64_t fallback) {
        const char *v = std::getenv(name);
        return v && *v ? std::strtoull(v, nullptr, 10) : fallback;
    };
    std::uint64_t seed = env_u64("PIPM_VERIFY_SEED", 1);
    bool require_false_suspicion = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        if (std::strcmp(arg, "--require-false-suspicion") == 0) {
            require_false_suspicion = true;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(arg[0]))) {
            seed = std::strtoull(arg, nullptr, 10);
            continue;
        }
        std::cerr << "verify_suspicion: unknown argument '" << arg
                  << "'\n";
        usage(std::cerr);
        return 2;
    }
    const auto schedules = static_cast<unsigned>(
        env_u64("PIPM_VERIFY_SCHEDULES", 4));
    const std::uint64_t accesses = env_u64("PIPM_VERIFY_ACCESSES", 20'000);

    // 4 hosts so schedules can crash, stall and fence several of them
    // while always leaving survivors to keep issuing accesses.
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;

    TablePrinter table("Suspicion-schedule checking (lease expiry + "
                       "gray-failure fencing + txn retry)");
    table.header({"scheme", "result", "schedules", "accesses", "suspect",
                  "false", "fenced", "retries", "lost"});
    bool all_ok = true;
    std::uint64_t total_false = 0;
    for (Scheme s :
         {Scheme::pipmFull, Scheme::hwStatic, Scheme::pipmNaive}) {
        const FaultCheckResult result = checkFaultSchedules(
            cfg, s, schedules, accesses, seed,
            FaultCheckOptions{/*withCrashes=*/true,
                              /*withSuspicion=*/true});
        all_ok = all_ok && result.ok;
        total_false += result.falseSuspicions;
        table.row({std::string(toString(s)),
                   result.ok ? "SAFE" : "VIOLATION: " + result.violation,
                   std::to_string(result.schedules),
                   std::to_string(result.accesses),
                   std::to_string(result.suspicions),
                   std::to_string(result.falseSuspicions),
                   std::to_string(result.fencedRequests),
                   std::to_string(result.txnRetries),
                   std::to_string(result.linesLost)});
    }
    table.print(std::cout);

    std::cout << "Invariants: SWMR, data-value against the last-writer "
                 "oracle (stale reads accepted only for explicitly lost "
                 "lines), deferred reclaim tolerated only while a dead "
                 "host's lease has not expired, fenced zombies readmit "
                 "cold under a fresh epoch, epoch parity, dead hosts "
                 "cache nothing.\n";
    if (require_false_suspicion && total_false == 0) {
        std::cerr << "verify_suspicion: no false suspicion observed "
                     "(required by --require-false-suspicion); pick a "
                     "seed whose stall windows outlast the lease.\n";
        return 3;
    }
    return all_ok ? 0 : 1;
}
