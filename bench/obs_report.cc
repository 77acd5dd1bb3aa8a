/**
 * @file
 * Observability report harness (DESIGN.md §10).
 *
 * Default mode runs one experiment with the stats.json export enabled,
 * validates the emitted document (schema + accounting invariants), and
 * renders the per-interval breakdown table — the same quantities
 * fig04_interval_breakdown aggregates over whole runs, here resolved in
 * time. The harness then cross-checks the interval columns against the
 * RunResult the very same run returned: every aggregate must match
 * exactly, or it exits non-zero.
 *
 * With --file <stats.json> no simulation runs: an existing export is
 * validated and rendered instead (e.g. a CI artifact).
 *
 *   obs_report [--file <stats.json>] [--scheme <name>]
 *              [--workload <name>] [--out <path>]
 *
 * Environment: the PIPM_BENCH_* run-length knobs and the PIPM_OBS_*
 * observability knobs apply (see bench_common.hh); --out defaults to
 * PIPM_STATS_JSON, then "stats.json".
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "obs/json.hh"
#include "obs/stats_json.hh"
#include "workloads/catalog.hh"

namespace
{

using namespace pipm;

/** Index of a counter column in the schema; -1 when absent. */
int
columnOf(const JsonValue &counters, const std::string &name)
{
    for (std::size_t i = 0; i < counters.arr.size(); ++i) {
        if (counters.arr[i].raw == name)
            return static_cast<int>(i);
    }
    return -1;
}

/** Sum every counter column whose name ends with `suffix`, per sample. */
std::uint64_t
suffixValue(const JsonValue &counters, const JsonValue &sample,
            const std::string &suffix)
{
    const JsonValue *c = sample.find("counters");
    if (!c)
        return 0;
    std::uint64_t sum = 0;
    for (std::size_t i = 0;
         i < counters.arr.size() && i < c->arr.size(); ++i) {
        const std::string &name = counters.arr[i].raw;
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            sum += c->arr[i].asU64();
        }
    }
    return sum;
}

std::uint64_t
cellValue(const JsonValue &sample, int col)
{
    if (col < 0)
        return 0;
    const JsonValue *c = sample.find("counters");
    if (!c || static_cast<std::size_t>(col) >= c->arr.size())
        return 0;
    return c->arr[static_cast<std::size_t>(col)].asU64();
}

/** Render the per-interval breakdown table of one parsed document. */
void
renderReport(const JsonValue &doc)
{
    const JsonValue *meta = doc.find("meta");
    const JsonValue *intervals = doc.find("intervals");
    const JsonValue *counters = intervals->find("counters");
    const JsonValue *samples = intervals->find("samples");

    std::ostringstream title;
    title << "Interval breakdown: " << meta->find("workload")->raw << '/'
          << meta->find("scheme")->raw << " (interval = "
          << meta->find("interval_accesses")->asU64()
          << " accesses, config " << meta->find("config_hash")->raw
          << ", " << meta->find("git_describe")->raw << ")";
    TablePrinter table(title.str());
    table.header({"ivl", "accesses", "Mcycles", "local-hit", "promo",
                  "revoke", "ln-in", "ln-back", "os-mig", "crc", "crash"});

    const int llc = columnOf(*counters, "system.shared_llc_misses");
    const int local = columnOf(*counters, "system.local_served_misses");
    const int promo = columnOf(*counters, "pipm.promotions");
    const int revoke = columnOf(*counters, "pipm.revocations");
    const int lin = columnOf(*counters, "pipm.lines_in");
    const int lback = columnOf(*counters, "pipm.lines_back");
    const int osm = columnOf(*counters, "system.os_migrations");
    const int crash = columnOf(*counters, "fault.host_crashes");

    unsigned idx = 0;
    for (const JsonValue &s : samples->arr) {
        const std::uint64_t accesses =
            s.find("end_access")->asU64() - s.find("start_access")->asU64();
        const std::uint64_t misses = cellValue(s, llc);
        const double hit_rate =
            misses ? static_cast<double>(cellValue(s, local)) /
                         static_cast<double>(misses)
                   : 0.0;
        table.row({std::to_string(idx++), std::to_string(accesses),
                   TablePrinter::num(static_cast<double>(
                                         s.find("end_cycle")->asU64()) /
                                         1e6,
                                     1),
                   TablePrinter::num(hit_rate, 3),
                   std::to_string(cellValue(s, promo)),
                   std::to_string(cellValue(s, revoke)),
                   std::to_string(cellValue(s, lin)),
                   std::to_string(cellValue(s, lback)),
                   std::to_string(cellValue(s, osm)),
                   std::to_string(
                       suffixValue(*counters, s, ".link.crc_errors")),
                   std::to_string(cellValue(s, crash))});
    }
    table.print(std::cout);

    if (const JsonValue *trace = doc.find("trace")) {
        std::cout << "Trace: " << trace->find("recorded")->asU64()
                  << " events recorded, "
                  << trace->find("dropped")->asU64()
                  << " dropped (ring capacity "
                  << trace->find("capacity")->asU64() << ")\n";
    }
}

/** Exact cross-check of interval aggregates against the RunResult:
 *  every counter field of the table must match. */
bool
crossCheck(const JsonValue &doc, const RunResult &r)
{
    bool ok = true;
    for (const RunResultField &f : runResultFields) {
        if (f.kind != RunResultField::counter)
            continue;
        const std::uint64_t got =
            intervalFieldTotal(*doc.find("intervals"), f);
        if (got != r.*f.u64) {
            std::fprintf(stderr,
                         "[obs] FAIL: interval sum for %s = %llu, "
                         "RunResult says %llu\n",
                         f.name, static_cast<unsigned long long>(got),
                         static_cast<unsigned long long>(r.*f.u64));
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pipm;
    using namespace pipmbench;

    std::string file;
    std::string out;
    std::string scheme_name = "pipm";
    std::string workload_name = "pr";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "[obs] %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: obs_report [--file stats.json] [--scheme s] "
                "[--workload w] [--out path]\n"
                "\n"
                "Without --file, runs one experiment with the stats.json "
                "export\nenabled, validates the document and renders the "
                "per-interval\nbreakdown. With --file, validates and "
                "renders an existing export.\n"
                "\n"
                "Environment: PIPM_BENCH_* run-length knobs and PIPM_OBS_* "
                "knobs\napply; --out defaults to PIPM_STATS_JSON, then "
                "\"stats.json\".\n");
            return 0;
        }
        if (arg == "--file")
            file = next();
        else if (arg == "--out")
            out = next();
        else if (arg == "--scheme")
            scheme_name = next();
        else if (arg == "--workload")
            workload_name = next();
        else {
            std::fprintf(stderr, "obs_report: unknown argument '%s'\n",
                         arg.c_str());
            std::fprintf(stderr,
                         "usage: obs_report [--file stats.json] "
                         "[--scheme s] [--workload w] [--out path]\n");
            return 2;
        }
    }

    std::string text;
    RunResult result;
    bool have_result = false;

    if (file.empty()) {
        const Options opts = optionsFromEnv();
        SystemConfig cfg = defaultConfig();
        applyEnvFaults(cfg, opts.seed);
        const auto workload =
            workloadByName(workload_name, cfg.footprintScale);
        RunConfig run_cfg = runConfigOf(opts);
        if (!out.empty())
            run_cfg.statsJsonPath = out;
        if (run_cfg.statsJsonPath.empty())
            run_cfg.statsJsonPath = "stats.json";
        std::fprintf(stderr, "[obs] running %s/%s -> %s\n",
                     workload->name().c_str(), scheme_name.c_str(),
                     run_cfg.statsJsonPath.c_str());
        const std::optional<Scheme> scheme = schemeFromString(scheme_name);
        if (!scheme) {
            std::fprintf(stderr, "[obs] unknown scheme '%s'\n",
                         scheme_name.c_str());
            return 2;
        }
        result = runExperiment(cfg, *scheme, *workload, run_cfg);
        have_result = true;
        file = run_cfg.statsJsonPath;
    }

    {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "[obs] cannot read %s\n", file.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }

    const std::vector<std::string> errors = validateStatsJson(text);
    if (!errors.empty()) {
        for (const std::string &e : errors)
            std::fprintf(stderr, "[obs] INVALID: %s\n", e.c_str());
        return 1;
    }

    std::string parse_error;
    const auto doc = parseJson(text, &parse_error);
    if (!doc) {
        std::fprintf(stderr, "[obs] parse error: %s\n",
                     parse_error.c_str());
        return 1;
    }

    renderReport(*doc);

    if (have_result && !crossCheck(*doc, result))
        return 1;
    std::cout << "stats.json valid: " << file << "\n";
    return 0;
}
