/**
 * @file
 * Differential configuration fuzzing driver (DESIGN.md §13).
 *
 * Samples seeded random valid configurations (src/fuzz), runs each
 * under the cross-checking oracles, and greedily minimizes any failure
 * into a ready-to-paste regression test. On top of the library oracles
 * (sched, faultzero, values, invariants, statsjson) this driver adds
 * the bench-layer "jobs" oracle: the same sweep executed with one and
 * with four worker threads must produce byte-identical bench-cache
 * files (the Sweep contract every figure harness depends on).
 *
 * Environment (flags override):
 *   PIPM_FUZZ_SEEDS        cases to sample (default 16)
 *   PIPM_FUZZ_REFS         max measured references per core (default 4000)
 *   PIPM_FUZZ_TIME_BUDGET  wall-clock budget in seconds (0: unlimited)
 *
 * Exit status: 0 when every case passes every oracle, 1 otherwise.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "fuzz/fuzz.hh"
#include "workloads/catalog.hh"

namespace
{

using namespace pipm;
using namespace pipm::fuzz;

void
usage(std::ostream &os)
{
    os << "usage: fuzz_run [--help] [--seeds N] [--seed0 S] [--refs N]\n"
          "                [--time-budget SEC] [--oracle NAME[,NAME...]]\n"
          "                [--out FILE]\n"
          "\n"
          "Differential configuration fuzzing (DESIGN.md §13): sample\n"
          "seeded random valid configurations, cross-check each under\n"
          "independent implementations of the simulator's equivalence\n"
          "contracts, and minimize any failure to a regression test.\n"
          "\n"
          "  --seeds N        cases to sample (default 16)\n"
          "  --seed0 S        first sample seed (default 1)\n"
          "  --refs N         max measured references per core (4000)\n"
          "  --time-budget S  stop sampling after S seconds (0: none)\n"
          "  --oracle NAMES   comma-separated subset of: sched,\n"
          "                   faultzero, values, invariants,\n"
          "                   statsjson, jobs\n"
          "                   (default: all)\n"
          "  --out FILE       append failing seeds and minimized\n"
          "                   reproducers to FILE (for CI artifacts)\n"
          "\n"
          "Environment (flags override): PIPM_FUZZ_SEEDS,\n"
          "PIPM_FUZZ_REFS, PIPM_FUZZ_TIME_BUDGET.\n"
          "PIPM_FUZZ_TRACE_DIR=DIR mixes the .pipmt traces in DIR\n"
          "into the sampled workload population (trace:<path>).\n";
}

/** A process-unique temp path for one bench-cache file. */
std::string
tempCachePath()
{
    static unsigned counter = 0;
    std::ostringstream name;
    name << "pipm_fuzz_cache_" << ::getpid() << "_" << ++counter << ".tsv";
    return (std::filesystem::temp_directory_path() / name.str()).string();
}

/**
 * The bench-layer oracle: one sweep over the case (plus two baseline
 * schemes, so multi-threaded runs actually fan out) executed with
 * jobs=1 and jobs=4 into fresh cache files must produce byte-identical
 * rows — every experiment is a self-contained seeded simulation and the
 * cache merge writes rows in canonical order.
 */
OracleResult
checkJobs(const FuzzCase &c)
{
    ThrowOnErrorScope guard;
    std::string contents[2];
    try {
        const auto wl = caseWorkload(c);
        for (int i = 0; i < 2; ++i) {
            pipmbench::Options opts;
            opts.measureRefs = c.measureRefs;
            opts.warmupRefs = c.warmupRefs;
            opts.seed = c.runSeed;
            opts.jobs = i == 0 ? 1 : 4;
            opts.cachePath = tempCachePath();
            pipmbench::Sweep sweep(opts);
            sweep.add(c.cfg, c.scheme, *wl);
            sweep.add(c.cfg, Scheme::native, *wl);
            sweep.add(c.cfg, Scheme::pipmFull, *wl);
            sweep.run();
            contents[i] = slurp(opts.cachePath);
            std::remove(opts.cachePath.c_str());
        }
    } catch (const SimError &e) {
        return {false, "panic/fatal during sweep: " + e.message};
    }
    if (contents[0].empty())
        return {false, "jobs=1 sweep produced no cache rows"};
    if (contents[0] != contents[1])
        return {false, "bench cache rows differ between jobs=1 and jobs=4"};
    return {};
}

struct Failure
{
    std::uint64_t seed;
    std::string oracle;
    MinimizedCase minimized;
};

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seeds = envU64("PIPM_FUZZ_SEEDS", 16);
    std::uint64_t seed0 = 1;
    std::uint64_t refs = envU64("PIPM_FUZZ_REFS", 4'000);
    std::uint64_t budget_sec = envU64("PIPM_FUZZ_TIME_BUDGET", 0);
    std::string oracle_names = "all";
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "fuzz_run: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&]() {
            const char *text = value();
            const auto n = parseU64(text);
            if (!n) {
                std::cerr << "fuzz_run: " << arg << " needs an unsigned "
                          << "decimal number, got '" << text << "'\n";
                std::exit(2);
            }
            return *n;
        };
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--seeds") {
            seeds = number();
        } else if (arg == "--seed0") {
            seed0 = number();
        } else if (arg == "--refs") {
            refs = number();
        } else if (arg == "--time-budget") {
            budget_sec = number();
        } else if (arg == "--oracle") {
            oracle_names = value();
        } else if (arg == "--out") {
            out_path = value();
        } else {
            std::cerr << "fuzz_run: unknown argument '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    refs = std::max<std::uint64_t>(refs, 4);

    // Resolve the oracle set: the library oracles plus "jobs".
    std::vector<Oracle> oracles;
    {
        std::vector<Oracle> all = coreOracles();
        all.push_back({"jobs", checkJobs});
        if (oracle_names == "all") {
            oracles = all;
        } else {
            std::istringstream ss(oracle_names);
            std::string name;
            while (std::getline(ss, name, ',')) {
                bool found = false;
                for (const Oracle &o : all) {
                    if (o.name == name) {
                        oracles.push_back(o);
                        found = true;
                    }
                }
                if (!found) {
                    std::cerr << "fuzz_run: unknown oracle '" << name
                              << "'\n";
                    return 2;
                }
            }
        }
    }
    if (oracles.empty()) {
        std::cerr << "fuzz_run: no oracles selected\n";
        return 2;
    }

    FuzzLimits lim;
    lim.maxRefs = refs;
    lim.minRefs = std::max<std::uint64_t>(1, refs / 4);
    lim.maxWarmup = std::max<std::uint64_t>(1, refs / 4);

    const auto start = std::chrono::steady_clock::now();
    auto out_of_budget = [&]() {
        if (!budget_sec)
            return false;
        return std::chrono::duration_cast<std::chrono::seconds>(
                   std::chrono::steady_clock::now() - start)
                   .count() >= static_cast<long>(budget_sec);
    };

    std::vector<Failure> failures;
    std::uint64_t sampled = 0;
    for (std::uint64_t s = seed0; s < seed0 + seeds; ++s) {
        if (out_of_budget()) {
            std::cout << "fuzz_run: time budget reached after " << sampled
                      << " of " << seeds << " cases\n";
            break;
        }
        const FuzzCase c = sampleCase(s, lim);
        ++sampled;
        std::string why;
        if (!caseValid(c, &why)) {
            // A repaired sample must always validate; this is a sampler
            // bug and every seed would hide it if we skipped silently.
            std::cerr << "fuzz_run: seed " << s
                      << " repaired to an invalid case: " << why << "\n";
            failures.push_back({s, "sampler", MinimizedCase{c, {false, why}}});
            continue;
        }
        std::cout << "seed " << s << ": " << describeCase(c) << std::endl;
        for (const Oracle &o : oracles) {
            const OracleResult r = o.check(c);
            if (r.ok)
                continue;
            std::cout << "  FAIL [" << o.name << "] " << r.detail << "\n"
                      << "  minimizing...\n";
            Failure f{s, o.name, minimizeCase(c, o)};
            std::cout << "  minimized (" << f.minimized.shrinks
                      << " shrinks, " << f.minimized.evals << " evals, "
                      << f.minimized.best.cfg.fault.activeDomains()
                      << " fault domains): "
                      << describeCase(f.minimized.best) << "\n"
                      << "  " << f.minimized.failure.detail << "\n";
            failures.push_back(std::move(f));
        }
    }

    if (!failures.empty()) {
        std::ostream *out = &std::cout;
        std::ofstream file;
        if (!out_path.empty()) {
            file.open(out_path, std::ios::app);
            if (file)
                out = &file;
            else
                std::cerr << "fuzz_run: cannot open " << out_path << "\n";
        }
        for (const Failure &f : failures) {
            *out << "# fuzz seed " << f.seed << ", oracle " << f.oracle
                 << "\n# " << describeCase(f.minimized.best) << "\n# "
                 << f.minimized.failure.detail << "\n";
            const std::vector<Oracle> core = coreOracles();
            if (std::any_of(core.begin(), core.end(),
                            [&f](const Oracle &o) {
                                return o.name == f.oracle;
                            })) {
                // Ready-to-paste gtest reproducer.
                *out << renderRegressionTest(f.minimized.best, f.oracle,
                                             f.seed)
                     << "\n";
            } else {
                // The jobs oracle lives in this driver, not the library;
                // emit the case so it can be replayed with --oracle.
                *out << renderCaseCode(f.minimized.best) << "\n";
            }
        }
    }

    std::cout << "fuzz_run: " << sampled << " cases, "
              << oracles.size() << " oracles, " << failures.size()
              << " failures\n";
    return failures.empty() ? 0 : 1;
}
