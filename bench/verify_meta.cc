/**
 * @file
 * Metadata-corruption verification (DESIGN.md §12): drives the full
 * system with the device-metadata corruption schedule layered on the
 * base fault rates. Directory entries and PIPM remap entries are
 * quarantined by seeded bit-flip events, then repaired by the periodic
 * scrubber or by the demand access that trips over them: probe-and-
 * rebuild when the shadow checksum survived, redo-journal replay for
 * in-flight migration metadata, and the degraded fallback (persistent
 * line poison / page force-reclaim with dirty-loss accounting) when
 * neither applies. The last-writer data oracle accepts stale values
 * only for lines the system explicitly reported lost, and the
 * cross-structure invariants are asserted throughout.
 *
 * With --combined, the crash/rejoin schedule, the lease-based failure
 * detector and gray-failure stall windows are layered underneath the
 * corruption schedule (the chaos-soak configuration).
 *
 * Environment:
 *   PIPM_VERIFY_SEED       base seed (default 1; also a CLI argument)
 *   PIPM_VERIFY_SCHEDULES  schedules per scheme (default 3)
 *   PIPM_VERIFY_ACCESSES   accesses per schedule (default 12000)
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
    os << "usage: verify_meta [--help] [--combined] [--require-repair]\n"
          "                   [--require-unrepairable] [--require-breaker]\n"
          "                   [seed]\n"
          "\n"
          "Checks device-metadata corruption schedules (scrub-and-repair,\n"
          "journal replay, degraded fallback, migration circuit breaker)\n"
          "against a last-writer data oracle and the cross-structure\n"
          "invariants.\n"
          "\n"
          "  seed    base seed (default 1; overrides PIPM_VERIFY_SEED)\n"
          "  --combined\n"
          "          also layer host crashes, the lease detector and\n"
          "          gray-failure stalls under the corruption schedule\n"
          "          (the chaos-soak configuration)\n"
          "  --require-repair\n"
          "          exit nonzero unless at least one corrupted entry was\n"
          "          repaired in place (probe-and-rebuild)\n"
          "  --require-unrepairable\n"
          "          exit nonzero unless at least one entry hit the\n"
          "          degraded fallback (shadow-checksum hit)\n"
          "  --require-breaker\n"
          "          exit nonzero unless at least one migration circuit\n"
          "          breaker tripped and later half-opened\n"
          "\n"
          "Environment:\n"
          "  PIPM_VERIFY_SEED       base seed (default 1)\n"
          "  PIPM_VERIFY_SCHEDULES  schedules per scheme (default 3)\n"
          "  PIPM_VERIFY_ACCESSES   accesses per schedule (default "
          "12000)\n";
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
    bool combined = false;
    bool require_repair = false;
    bool require_unrepairable = false;
    bool require_breaker = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        if (std::strcmp(arg, "--combined") == 0) {
            combined = true;
            continue;
        }
        if (std::strcmp(arg, "--require-repair") == 0) {
            require_repair = true;
            continue;
        }
        if (std::strcmp(arg, "--require-unrepairable") == 0) {
            require_unrepairable = true;
            continue;
        }
        if (std::strcmp(arg, "--require-breaker") == 0) {
            require_breaker = true;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(arg[0]))) {
            seed = std::strtoull(arg, nullptr, 10);
            continue;
        }
        std::cerr << "verify_meta: unknown argument '" << arg << "'\n";
        usage(std::cerr);
        return 2;
    }
    const auto schedules = static_cast<unsigned>(
        env_u64("PIPM_VERIFY_SCHEDULES", 3));
    const std::uint64_t accesses = env_u64("PIPM_VERIFY_ACCESSES", 12'000);

    // 4 hosts: enough directory/remap population for the corruption
    // events to find victims, with survivors under --combined crashes.
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;

    FaultCheckOptions opt;
    opt.withMetaCorruption = true;
    if (combined) {
        opt.withCrashes = true;
        opt.withSuspicion = true;
    }

    TablePrinter table(combined
                           ? "Metadata-corruption + crash + stall checking "
                             "(chaos soak)"
                           : "Metadata-corruption checking (scrub, "
                             "journal, degraded fallback, breaker)");
    table.header({"scheme", "result", "schedules", "accesses", "corrupt",
                  "repair", "replay", "degrade", "trip", "halfopen",
                  "lost"});
    bool all_ok = true;
    std::uint64_t total_repairs = 0;
    std::uint64_t total_unrepairable = 0;
    std::uint64_t total_trips = 0;
    std::uint64_t total_half_opens = 0;
    for (Scheme s :
         {Scheme::pipmFull, Scheme::hwStatic, Scheme::pipmNaive}) {
        const FaultCheckResult result =
            checkFaultSchedules(cfg, s, schedules, accesses, seed, opt);
        all_ok = all_ok && result.ok;
        total_repairs += result.scrubRepairs + result.journalReplays;
        total_unrepairable += result.scrubUnrepairable;
        total_trips += result.breakerTrips;
        total_half_opens += result.breakerHalfOpens;
        table.row({std::string(toString(s)),
                   result.ok ? "SAFE" : "VIOLATION: " + result.violation,
                   std::to_string(result.schedules),
                   std::to_string(result.accesses),
                   std::to_string(result.metaCorruptions),
                   std::to_string(result.scrubRepairs),
                   std::to_string(result.journalReplays),
                   std::to_string(result.scrubUnrepairable),
                   std::to_string(result.breakerTrips),
                   std::to_string(result.breakerHalfOpens),
                   std::to_string(result.linesLost)});
    }
    table.print(std::cout);

    std::cout << "Invariants: SWMR, data-value against the last-writer "
                 "oracle (stale reads accepted only for explicitly lost "
                 "lines), quarantined metadata never consumed, poisoned "
                 "lines uncached and directory-untracked, breaker-shed "
                 "pages keep serving demand traffic.\n";
    if (require_repair && total_repairs == 0) {
        std::cerr << "verify_meta: no in-place repair or journal replay "
                     "observed (required by --require-repair); pick a "
                     "seed or raise PIPM_VERIFY_ACCESSES.\n";
        return 3;
    }
    if (require_unrepairable && total_unrepairable == 0) {
        std::cerr << "verify_meta: no degraded fallback observed "
                     "(required by --require-unrepairable); pick a seed "
                     "whose corruption events hit shadow checksums.\n";
        return 3;
    }
    if (require_breaker && (total_trips == 0 || total_half_opens == 0)) {
        std::cerr << "verify_meta: no breaker trip + half-open observed "
                     "(required by --require-breaker); pick a seed with "
                     "denser corruption or lower the breaker threshold.\n";
        return 3;
    }
    return all_ok ? 0 : 1;
}
