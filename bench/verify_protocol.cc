/**
 * @file
 * §5.1.4 verification: exhaustive explicit-state checking of the PIPM
 * coherence protocol (the reproduction's Murphi analog). Verifies SWMR,
 * the data-value invariant, the I'/ME encoding rules and directory
 * precision over every interleaving of reads/writes/evictions/
 * promotions/revocations for 2, 3 and 4 hosts, and reports the explored
 * state space.
 */

#include <cstring>
#include <iostream>

#include "common/config.hh"
#include "common/table_printer.hh"
#include "verify/checker.hh"
#include "verify/fault_schedule.hh"
#include "verify/multiline_model.hh"

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: verify_protocol [--help]\n"
          "\n"
          "Exhaustive explicit-state checking of the PIPM coherence\n"
          "protocol (single-line 2-4 hosts, two-line page model 2-3\n"
          "hosts) plus randomised fault-schedule checking of the full\n"
          "system. Takes no other arguments; exits 0 when every check\n"
          "is SAFE, 1 on a violation.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pipm;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        std::cerr << "verify_protocol: unknown argument '" << argv[i]
                  << "'\n";
        usage(std::cerr);
        return 2;
    }

    TablePrinter table("Protocol verification (Murphi-analog explicit-"
                       "state checking)");
    table.header({"hosts", "result", "states", "transitions"});
    bool all_ok = true;
    for (unsigned hosts = 2; hosts <= 4; ++hosts) {
        const CheckResult result = checkProtocol(hosts);
        all_ok = all_ok && result.ok;
        table.row({std::to_string(hosts),
                   result.ok ? "SAFE" : "VIOLATION: " + result.violation,
                   std::to_string(result.statesExplored),
                   std::to_string(result.transitions)});
        if (!result.ok)
            std::cerr << result.traceString(hosts);
    }
    table.print(std::cout);

    TablePrinter table2("Two-line page model (page-level couplings: "
                        "shared entry, whole-page revocation)");
    table2.header({"hosts", "result", "states", "transitions"});
    for (unsigned hosts = 2; hosts <= 3; ++hosts) {
        const CheckResult result = checkMultiLineProtocol(hosts);
        all_ok = all_ok && result.ok;
        table2.row({std::to_string(hosts),
                    result.ok ? "SAFE"
                              : "VIOLATION: " + result.violation,
                    std::to_string(result.statesExplored),
                    std::to_string(result.transitions)});
    }
    table2.print(std::cout);

    TablePrinter table3("Fault-schedule checking (full system under "
                        "injected link/poison/abort faults)");
    table3.header({"scheme", "result", "schedules", "accesses", "faults"});
    SystemConfig cfg = testConfig();
    cfg.fault = paperFaultConfig();
    for (Scheme s : {Scheme::pipmFull, Scheme::hwStatic}) {
        const FaultCheckResult result = checkFaultSchedules(cfg, s, 4, 20'000);
        all_ok = all_ok && result.ok;
        // Faults injected: every link, poison and migration fault event.
        const RunResult &t = result.totals;
        table3.row({std::string(toString(s)),
                    result.ok ? "SAFE" : "VIOLATION: " + result.violation,
                    std::to_string(result.schedules),
                    std::to_string(result.accesses),
                    std::to_string(t.linkCrcErrors + t.linkRetrainEvents +
                                   t.poisonEvents + t.migrationAborts +
                                   t.hostCrashes + t.hostRejoins)});
    }
    table3.print(std::cout);

    std::cout << "Invariants: single-writer-multiple-reader, data-value "
                 "(reads return the latest write), I'/ME encoding "
                 "consistency, directory precision, deadlock freedom; "
                 "under faults additionally remap-table consistency and "
                 "poisoned-lines-uncached.\n";
    return all_ok ? 0 : 1;
}
