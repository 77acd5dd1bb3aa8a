/**
 * @file
 * Crash-schedule verification (DESIGN.md §8): drives the full system
 * under randomised host fail-stop crash and cold-rejoin schedules layered
 * on the paper-default fault rates, with a last-writer data oracle that
 * accepts stale values only for lines the system explicitly reported
 * lost, and the cross-structure invariants (including the post-crash
 * no-dead-references checks) asserted throughout.
 *
 * Environment:
 *   PIPM_VERIFY_SEED       base seed (default 1; also first CLI argument)
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
    os << "usage: verify_crash [--help] [seed]\n"
          "\n"
          "Checks host fail-stop crash/rejoin schedules against a\n"
          "last-writer data oracle and the cross-structure invariants.\n"
          "\n"
          "  seed    base seed (default 1; overrides PIPM_VERIFY_SEED)\n"
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
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        if (std::isdigit(static_cast<unsigned char>(arg[0]))) {
            seed = std::strtoull(arg, nullptr, 10);
            continue;
        }
        std::cerr << "verify_crash: unknown argument '" << arg << "'\n";
        usage(std::cerr);
        return 2;
    }
    const auto schedules = static_cast<unsigned>(
        env_u64("PIPM_VERIFY_SCHEDULES", 4));
    const std::uint64_t accesses = env_u64("PIPM_VERIFY_ACCESSES", 20'000);

    // 4 hosts so schedules can crash (and rejoin) several of them while
    // always leaving survivors to keep issuing accesses.
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;

    TablePrinter table("Crash-schedule checking (host fail-stop + "
                       "directory reclamation + rejoin)");
    table.header({"scheme", "result", "schedules", "accesses", "crashes",
                  "rejoins", "lost"});
    bool all_ok = true;
    for (Scheme s :
         {Scheme::pipmFull, Scheme::hwStatic, Scheme::pipmNaive}) {
        const FaultCheckResult result = checkFaultSchedules(
            cfg, s, schedules, accesses, seed, /*with_crashes=*/true);
        all_ok = all_ok && result.ok;
        table.row({std::string(toString(s)),
                   result.ok ? "SAFE" : "VIOLATION: " + result.violation,
                   std::to_string(result.schedules),
                   std::to_string(result.accesses),
                   std::to_string(result.crashes),
                   std::to_string(result.rejoins),
                   std::to_string(result.linesLost)});
    }
    table.print(std::cout);

    std::cout << "Invariants: SWMR, data-value against the last-writer "
                 "oracle (stale reads accepted only for explicitly lost "
                 "lines), directory holds no dead sharers, remap tables "
                 "hold no dead-host references, epoch parity, dead hosts "
                 "cache nothing.\n";
    return all_ok ? 0 : 1;
}
