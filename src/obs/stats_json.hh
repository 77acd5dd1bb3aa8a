/**
 * @file
 * stats.json: the deterministic machine-readable export of one run
 * (DESIGN.md §10).
 *
 * Schema (version 1):
 *
 *   {
 *     "schema_version": 1,
 *     "meta": { workload, scheme, seed, warmup_refs_per_core,
 *               measure_refs_per_core, interval_accesses,
 *               config_hash, git_describe },
 *     "totals": { every runResultFields row, by name, in table order },
 *     "intervals": {
 *       "counters": ["system.shared_accesses", ...],
 *       "averages": ["system.avg_shared_miss_latency", ...],
 *       "samples": [ { "start_access", "end_access", "end_cycle",
 *                      "counters": [deltas...],
 *                      "averages": [in-interval means...] }, ... ]
 *     },
 *     "trace": { "capacity", "recorded", "dropped",
 *                "events": [ { "cycle", "type", "host", "addr",
 *                              "aux" }, ... ] }      // when tracing
 *   }
 *
 * Output is byte-deterministic: fixed field order, std::to_chars number
 * formatting, no timestamps. git_describe is the only field that varies
 * across commits of this repository; everything else is a function of
 * (config, scheme, workload, run lengths, seed).
 *
 * The validator checks structure AND accounting: summing an interval
 * counter column must reproduce the corresponding RunResult total
 * exactly (the MetricsRegistry delta invariant), and when a column's
 * producing subsystem was absent the total must be zero.
 */

#ifndef PIPM_OBS_STATS_JSON_HH
#define PIPM_OBS_STATS_JSON_HH

#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"

namespace pipm
{

/** Run metadata recorded in the "meta" section. */
struct StatsJsonMeta
{
    std::string workload;
    std::string scheme;
    std::uint64_t seed = 0;
    std::uint64_t warmupRefsPerCore = 0;
    std::uint64_t measureRefsPerCore = 0;
    std::uint64_t intervalAccesses = 0;
    std::string configHash;     ///< fnv1aHex(cfg.measurementKey())
};

/** The compiled-in `git describe` string ("unknown" outside a repo). */
std::string gitDescribe();

/** Render the full stats.json document (ends with a newline). */
std::string renderStatsJson(const StatsJsonMeta &meta, const RunResult &r,
                            const MetricsRegistry &registry,
                            const ObsTrace *trace);

/**
 * Write `doc` to `path` atomically (temp file + rename).
 * @return whether the write succeeded (failure warns on stderr)
 */
bool writeStatsJson(const std::string &path, const std::string &doc);

/**
 * Sum over every interval sample of the counter columns that counter
 * field `f` is built from. `found` reports whether any such column is
 * in the schema (absent when the producing subsystem was not in the
 * run).
 */
std::uint64_t intervalFieldTotal(const JsonValue &intervals,
                                 const RunResultField &f,
                                 bool *found = nullptr);

/**
 * Validate a stats.json document against the schema and the accounting
 * invariants. @return one message per violation; empty when valid.
 */
std::vector<std::string> validateStatsJson(const std::string &text);

} // namespace pipm

#endif // PIPM_OBS_STATS_JSON_HH
