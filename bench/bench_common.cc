#include "bench_common.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "common/env.hh"
#include "common/hash.hh"

namespace pipmbench
{

using namespace pipm;

namespace
{

/** Whether the cache stores this field (derived ones are recomputed). */
bool
stored(const RunResultField &f)
{
    return f.kind != RunResultField::derived;
}

/** Serialise a RunResult as tab-separated fields in table order. */
std::string
serialize(const RunResult &r)
{
    std::ostringstream os;
    const char *sep = "";
    for (const RunResultField &f : runResultFields) {
        if (!stored(f))
            continue;
        os << sep;
        sep = "\t";
        if (f.u64)
            os << r.*f.u64;
        else
            os << r.*f.f64;
    }
    return os.str();
}

/** Parse a serialize()d row; every column must parse completely. */
bool
deserialize(const std::string &line, RunResult &r)
{
    std::size_t pos = 0;
    bool more = true;
    for (const RunResultField &f : runResultFields) {
        if (!stored(f))
            continue;
        if (!more)
            return false;   // too few columns
        const std::size_t tab = std::min(line.find('\t', pos), line.size());
        const char *first = line.data() + pos;
        const char *last = line.data() + tab;
        const auto res = f.u64 ? std::from_chars(first, last, r.*f.u64)
                               : std::from_chars(first, last, r.*f.f64);
        if (res.ec != std::errc() || res.ptr != last)
            return false;
        more = tab < line.size();
        pos = tab + 1;
    }
    return !more;   // no trailing columns
}

/** Cache key of one experiment (16 hex chars). */
std::string
experimentKey(const SystemConfig &cfg, Scheme scheme,
              const Workload &workload, const Options &opts)
{
    std::ostringstream key_src;
    key_src << workload.fingerprint() << '|' << toString(scheme) << '|'
            << cfg.measurementKey() << '|' << opts.measureRefs << '|'
            << opts.warmupRefs << '|' << opts.seed;
    return fnv1aHex(key_src.str());
}

/**
 * Load the cache file as key -> serialized-result. A file whose header
 * is not cacheHeader() (an older column layout, or none) is ignored as
 * a whole; malformed rows (truncated writes, corrupted keys, short
 * result columns) are skipped. Either way the next merge drops them;
 * `report` warns about it (once per merge, not on every lookup).
 */
std::map<std::string, std::string>
loadCache(const std::string &path, bool report)
{
    std::map<std::string, std::string> rows;
    std::ifstream in(path);
    std::string line;
    if (!std::getline(in, line))
        return rows;
    if (line != cacheHeader()) {
        if (report)
            std::fprintf(stderr,
                         "[bench] warning: ignoring cache %s: its header "
                         "does not match this build's columns; replacing "
                         "it\n",
                         path.c_str());
        return rows;
    }
    std::size_t lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        bool ok = line.size() > 17 && line[16] == '\t';
        if (ok) {
            for (std::size_t i = 0; i < 16; ++i)
                ok = ok && std::isxdigit(
                               static_cast<unsigned char>(line[i]));
        }
        RunResult parsed;
        ok = ok && deserialize(line.substr(17), parsed);
        if (!ok) {
            if (report)
                std::fprintf(stderr,
                             "[bench] warning: dropping malformed cache "
                             "row %s:%zu\n",
                             path.c_str(), lineno);
            continue;
        }
        rows[line.substr(0, 16)] = line.substr(17);
    }
    return rows;
}

/**
 * Merge `fresh` rows into the cache file with a single atomic replace:
 * re-read the file (another process may have added rows), overlay the
 * new entries, write a temp file in canonical key order and rename it
 * over the original. Readers never observe a partial file, and the
 * row order is independent of the execution order that produced it.
 */
void
mergeCache(const std::string &path,
           const std::map<std::string, std::string> &fresh)
{
    std::map<std::string, std::string> rows = loadCache(path, true);
    for (const auto &[key, row] : fresh)
        rows[key] = row;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << cacheHeader() << '\n';
        for (const auto &[key, row] : rows)
            out << key << '\t' << row << '\n';
        if (!out) {
            std::fprintf(stderr,
                         "[bench] warning: cannot write cache temp %s\n",
                         tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr,
                     "[bench] warning: cannot replace cache %s\n",
                     path.c_str());
        std::remove(tmp.c_str());
    }
}

/** The PIPM_BENCH_FAULTS values that enable a schedule, for messages. */
std::string
faultModeList()
{
    std::string list = "1 (paper default)";
    for (const FaultSchedule &s : faultSchedules) {
        if (s.code)
            list += std::string(", ") + s.name + "|" + s.code;
    }
    return list;
}

} // namespace

std::string
cacheHeader()
{
    std::string header = "key";
    for (const RunResultField &f : runResultFields) {
        if (stored(f))
            header += std::string("\t") + f.name;
    }
    return header;
}

Options
optionsFromEnv()
{
    Options opts;
    opts.measureRefs = envU64("PIPM_BENCH_REFS", opts.measureRefs);
    opts.warmupRefs = envU64("PIPM_BENCH_WARMUP", opts.warmupRefs);
    opts.seed = envU64("PIPM_BENCH_SEED", opts.seed);
    if (const char *p = std::getenv("PIPM_BENCH_CACHE"))
        opts.cachePath = p;
    opts.jobs = static_cast<unsigned>(
        std::max<std::uint64_t>(1, envU64("PIPM_BENCH_JOBS", 1)));
    if (const char *p = std::getenv("PIPM_STATS_JSON"))
        opts.statsJsonPath = p;
    opts.obsInterval = envU64("PIPM_OBS_INTERVAL", 0);
    opts.obsTrace = envU64("PIPM_OBS_TRACE", 0);
    if (const char *p = std::getenv("PIPM_OBS_WATCH"))
        opts.obsWatch = p;
    return opts;
}

void
handleHarnessArgs(int argc, char **argv, const char *name,
                  const char *what)
{
    for (int i = 1; i < argc; ++i) {
        const bool help = std::strcmp(argv[i], "--help") == 0 ||
                          std::strcmp(argv[i], "-h") == 0;
        std::ostream &os = help ? std::cout : std::cerr;
        if (!help)
            os << name << ": unknown argument '" << argv[i] << "'\n\n";
        os << "usage: " << name << " [--help]\n\n"
           << what << "\n\n"
           << "All knobs are environment variables:\n"
              "  PIPM_BENCH_REFS    measured references per core "
              "(default 150000)\n"
              "  PIPM_BENCH_WARMUP  warmup references per core "
              "(default 40000)\n"
              "  PIPM_BENCH_SEED    RNG seed (default 42)\n"
              "  PIPM_BENCH_CACHE   cache file path "
              "(default ./pipm_bench_cache.tsv)\n"
              "  PIPM_BENCH_JOBS    sweep worker threads (default 1)\n"
              "  PIPM_BENCH_FAULTS  fault schedule: "
           << faultModeList() << "\n"
           << "  PIPM_STATS_JSON, PIPM_OBS_INTERVAL, PIPM_OBS_TRACE,\n"
              "  PIPM_OBS_WATCH     observability exports "
              "(DESIGN.md §10)\n";
        std::exit(help ? 0 : 2);
    }
}

RunConfig
runConfigOf(const Options &opts)
{
    RunConfig run;
    run.measureRefsPerCore = opts.measureRefs;
    run.warmupRefsPerCore = opts.warmupRefs;
    run.seed = opts.seed;
    run.footprintSampleEvery = std::max<std::uint64_t>(
        10'000, opts.measureRefs / 4);
    // The environment was already resolved into opts (once, up front);
    // runExperiment must not re-read it, or parallel sweep workers would
    // all inherit the same PIPM_STATS_JSON output path.
    run.obsFromEnv = false;
    run.statsJsonPath = opts.statsJsonPath;
    run.obsIntervalAccesses = opts.obsInterval;
    run.obsTraceCapacity = opts.obsTrace;
    run.obsWatchLines = opts.obsWatch;
    return run;
}

bool
applyEnvFaults(SystemConfig &cfg, std::uint64_t seed)
{
    const std::string mode = envStr("PIPM_BENCH_FAULTS", "0");
    if (mode == "0")
        return false;
    if (mode == "1") {
        cfg.fault = paperFaultConfig(seed);
        return true;
    }
    for (const FaultSchedule &s : faultSchedules) {
        if (s.code && (mode == s.name || mode == s.code)) {
            cfg.fault = s.make(seed);
            return true;
        }
    }
    std::fprintf(stderr,
                 "PIPM_BENCH_FAULTS='%s' names no fault schedule; "
                 "accepted: 0 or unset (off), %s\n",
                 mode.c_str(), faultModeList().c_str());
    std::exit(2);
}

std::size_t
Sweep::add(const SystemConfig &cfg, Scheme scheme, const Workload &workload)
{
    cfg.validate();
    items_.push_back(Item{cfg, scheme, &workload,
                          experimentKey(cfg, scheme, workload, opts_)});
    return items_.size() - 1;
}

std::vector<RunResult>
Sweep::run()
{
    // Simulate each key the cache lacks once, in first-add() order
    // (nested harness loops may enqueue the same combination twice).
    const std::map<std::string, std::string> cached =
        loadCache(opts_.cachePath, false);
    std::map<std::string, std::string> fresh;   // key -> simulated row
    std::vector<const Item *> todo;
    for (const Item &item : items_) {
        if (!cached.count(item.key) && fresh.emplace(item.key, "").second)
            todo.push_back(&item);
    }

    // Run the misses on the pool. Rows land in an index-addressed
    // vector, so the merged rows are independent of completion order;
    // each experiment is a self-contained seeded simulation, so the
    // row *values* are independent of the job count too.
    std::vector<std::string> rows(todo.size());
    std::atomic<std::size_t> next{0};
    const unsigned jobs = std::max(
        1u, std::min(opts_.jobs,
                     static_cast<unsigned>(todo.size())));
    RunConfig run_cfg = runConfigOf(opts_);
    // No stats.json from cached experiments: a later hit would not
    // re-run the simulation, and parallel workers sharing this config
    // would all overwrite the same file.
    run_cfg.statsJsonPath.clear();
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= todo.size())
                return;
            const Item &item = *todo[i];
            std::fprintf(stderr, "[bench] running %s/%s...\n",
                         item.workload->name().c_str(),
                         std::string(toString(item.scheme)).c_str());
            rows[i] = serialize(runExperiment(
                item.cfg, item.scheme, *item.workload, run_cfg));
        }
    };
    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    // Single-writer merge of all new rows in one atomic replace.
    if (!todo.empty()) {
        for (std::size_t i = 0; i < todo.size(); ++i)
            fresh[todo[i]->key] = rows[i];
        mergeCache(opts_.cachePath, fresh);
    }

    // Every result is read back from its row, so a harness prints the
    // same digits whether or not the cache was warm.
    std::vector<RunResult> results(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) {
        const Item &item = items_[i];
        const auto hit = cached.find(item.key);
        results[i].workload = item.workload->name();
        results[i].scheme = item.scheme;
        deserialize(hit != cached.end() ? hit->second : fresh.at(item.key),
                    results[i]);
    }
    return results;
}

double
speedupOver(const RunResult &base, const RunResult &x)
{
    return x.execCycles
               ? static_cast<double>(base.execCycles) /
                     static_cast<double>(x.execCycles)
               : 0.0;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace pipmbench
