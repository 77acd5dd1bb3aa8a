/**
 * @file
 * Fault-schedule verification for the failure domains (DESIGN.md §8,
 * §11, §12): drives the full system under randomised schedules of one
 * named fault domain with a last-writer data oracle that accepts stale
 * values only for lines the system explicitly reported lost, and the
 * cross-structure invariants asserted throughout.
 *
 *   crash    host fail-stop crashes, directory reclamation, cold rejoin
 *   suspect  crash schedule under lease detection, gray-failure stall
 *            windows (zombie fencing) and transaction retries
 *   meta     device-metadata corruption: scrub-and-repair, journal
 *            replay, degraded fallback, migration circuit breaker
 *   chaos    meta layered on the suspect schedule (the chaos soak)
 *
 * `--require FIELD` makes a run gate on a failure path being exercised:
 * it exits 3 when that RunResult counter sums to zero over the schemes.
 *
 * Environment:
 *   PIPM_VERIFY_SEED       base seed (default 1; also a CLI argument)
 *   PIPM_VERIFY_SCHEDULES  schedules per scheme (domain default)
 *   PIPM_VERIFY_ACCESSES   accesses per schedule (domain default)
 */

#include <iostream>
#include <string_view>
#include <vector>

#include "bench_common.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/table_printer.hh"
#include "verify/fault_schedule.hh"

namespace
{

using namespace pipm;

/** One checkable fault domain. */
struct Domain
{
    std::string_view name;   ///< a pipmbench::faultSchedules name
    const char *title;
    unsigned schedules;      ///< default PIPM_VERIFY_SCHEDULES
    std::uint64_t accesses;  ///< default PIPM_VERIFY_ACCESSES
    std::vector<std::string_view> columns;   ///< runResultFields names
    const char *invariants;
};

const char *const metaInvariants =
    "Invariants: SWMR, data-value against the last-writer oracle (stale "
    "reads accepted only for explicitly lost lines), quarantined metadata "
    "never consumed, poisoned lines uncached and directory-untracked, "
    "breaker-shed pages keep serving demand traffic.\n";

const std::vector<Domain> domains = {
    {"crash",
     "Crash-schedule checking (host fail-stop + directory reclamation + "
     "rejoin)",
     4, 20'000,
     {"host_crashes", "host_rejoins", "crash_lines_reclaimed",
      "crash_dirty_lines_lost"},
     "Invariants: SWMR, data-value against the last-writer oracle (stale "
     "reads accepted only for explicitly lost lines), directory holds no "
     "dead sharers, remap tables hold no dead-host references, epoch "
     "parity, dead hosts cache nothing.\n"},
    {"suspect",
     "Suspicion-schedule checking (lease expiry + gray-failure fencing + "
     "txn retry)",
     4, 20'000,
     {"suspicions", "false_suspicions", "fenced_requests", "txn_timeouts",
      "txn_retries", "stall_windows", "crash_dirty_lines_lost"},
     "Invariants: SWMR, data-value against the last-writer oracle (stale "
     "reads accepted only for explicitly lost lines), deferred reclaim "
     "tolerated only while a dead host's lease has not expired, fenced "
     "zombies readmit cold under a fresh epoch, epoch parity, dead hosts "
     "cache nothing.\n"},
    {"meta",
     "Metadata-corruption checking (scrub, journal, degraded fallback, "
     "breaker)",
     3, 12'000,
     {"meta_corruptions", "meta_scrub_checks", "meta_scrub_repairs",
      "meta_journal_replays", "meta_unrepairable", "meta_breaker_trips",
      "meta_breaker_half_opens", "crash_dirty_lines_lost"},
     metaInvariants},
    {"chaos",
     "Metadata-corruption + crash + stall checking (chaos soak)", 3,
     12'000,
     {"host_crashes", "false_suspicions", "meta_corruptions",
      "meta_scrub_repairs", "meta_journal_replays", "meta_unrepairable",
      "meta_breaker_trips", "meta_breaker_half_opens",
      "crash_dirty_lines_lost"},
     metaInvariants},
};

void
usage(std::ostream &os)
{
    os << "usage: verify_faults <crash|suspect|meta|chaos> "
          "[--require FIELD]... [seed]\n"
          "\n"
          "Checks randomised schedules of one fault domain against a\n"
          "last-writer data oracle and the cross-structure invariants.\n"
          "\n"
          "  crash    host fail-stop crashes and cold rejoins "
          "(4 x 20000)\n"
          "  suspect  crash + lease detection, stalls, txn retries "
          "(4 x 20000)\n"
          "  meta     device-metadata corruption (3 x 12000)\n"
          "  chaos    meta + suspect together (3 x 12000)\n"
          "  --require FIELD\n"
          "           exit 3 unless the RunResult counter FIELD (e.g.\n"
          "           false_suspicions) is nonzero summed over the schemes\n"
          "  seed     base seed (default 1; overrides PIPM_VERIFY_SEED)\n"
          "\n"
          "Environment:\n"
          "  PIPM_VERIFY_SEED       base seed (default 1)\n"
          "  PIPM_VERIFY_SCHEDULES  schedules per scheme (domain default)\n"
          "  PIPM_VERIFY_ACCESSES   accesses per schedule (domain "
          "default)\n";
}

/** The counter field named `name`, or nullptr. */
const RunResultField *
counterField(std::string_view name)
{
    for (const RunResultField &f : runResultFields) {
        if (f.kind == RunResultField::counter && name == f.name)
            return &f;
    }
    return nullptr;
}

int
fail(std::string_view what, std::string_view arg)
{
    std::cerr << "verify_faults: " << what << " '" << arg << "'\n";
    usage(std::cerr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && (std::string_view(argv[1]) == "--help" ||
                     std::string_view(argv[1]) == "-h")) {
        usage(std::cout);
        return 0;
    }
    if (argc < 2) {
        usage(std::cerr);
        return 2;
    }
    const Domain *domain = nullptr;
    for (const Domain &d : domains) {
        if (d.name == argv[1])
            domain = &d;
    }
    if (!domain)
        return fail("unknown domain", argv[1]);

    std::uint64_t seed = envU64("PIPM_VERIFY_SEED", 1);
    std::vector<const RunResultField *> required;
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        }
        if (arg == "--require") {
            if (i + 1 == argc)
                return fail("missing field after", arg);
            const RunResultField *f = counterField(argv[++i]);
            if (!f)
                return fail("unknown counter field", argv[i]);
            required.push_back(f);
            continue;
        }
        if (const auto n = parseU64(arg)) {
            seed = *n;
            continue;
        }
        return fail("unknown argument", arg);
    }
    const auto schedules = static_cast<unsigned>(
        envU64("PIPM_VERIFY_SCHEDULES", domain->schedules));
    const std::uint64_t accesses =
        envU64("PIPM_VERIFY_ACCESSES", domain->accesses);

    std::vector<const RunResultField *> columns;
    for (std::string_view name : domain->columns) {
        columns.push_back(counterField(name));
        panic_if(!columns.back(), "domain column ", name,
                 " is no counter field");
    }

    // 4 hosts so schedules can crash, stall and fence several of them
    // while always leaving survivors to keep issuing accesses, and
    // enough directory/remap population for corruption to find victims.
    SystemConfig cfg = testConfig();
    cfg.numHosts = 4;
    for (const pipmbench::FaultSchedule &s : pipmbench::faultSchedules) {
        if (domain->name == s.name)
            cfg.fault = s.make(seed);
    }

    TablePrinter table(domain->title);
    std::vector<std::string> header = {"scheme", "result", "schedules",
                                       "accesses"};
    for (const RunResultField *f : columns)
        header.push_back(f->name);
    table.header(header);
    bool all_ok = true;
    RunResult sum;
    for (Scheme s :
         {Scheme::pipmFull, Scheme::hwStatic, Scheme::pipmNaive}) {
        const FaultCheckResult result =
            checkFaultSchedules(cfg, s, schedules, accesses, seed);
        all_ok = all_ok && result.ok;
        std::vector<std::string> row = {
            std::string(toString(s)),
            result.ok ? "SAFE" : "VIOLATION: " + result.violation,
            std::to_string(result.schedules),
            std::to_string(result.accesses)};
        for (const RunResultField *f : columns)
            row.push_back(std::to_string(result.totals.*f->u64));
        table.row(row);
        for (const RunResultField *f : required)
            sum.*f->u64 += result.totals.*f->u64;
    }
    table.print(std::cout);
    std::cout << domain->invariants;

    for (const RunResultField *f : required) {
        if (sum.*f->u64 == 0) {
            std::cerr << "verify_faults: no " << f->name
                      << " observed (required by --require " << f->name
                      << "); pick another seed or raise "
                         "PIPM_VERIFY_ACCESSES.\n";
            return 3;
        }
    }
    return all_ok ? 0 : 1;
}
