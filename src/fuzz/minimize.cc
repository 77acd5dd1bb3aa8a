/**
 * @file
 * Greedy fuzz-case minimization and regression-test rendering
 * (DESIGN.md §13).
 *
 * A raw failing sample is a poor bug report: it typically has several
 * fault domains armed, a large topology, and dozens of perturbed knobs,
 * most of which are irrelevant to the failure. minimizeCase() shrinks it
 * with a fixed transform list — drop fault domains one at a time, halve
 * hosts/cores/refs/footprint, reset knob groups to the test baseline —
 * accepting a candidate only when the oracle still fails on it, until no
 * transform makes progress (or the evaluation budget runs out). The
 * result renders as a ready-to-paste regression test.
 */

#include "fuzz/fuzz.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace pipm
{
namespace fuzz
{

namespace
{

/** Render a double as a C++ literal that round-trips exactly. */
std::string
lit(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    const std::string s = os.str();
    // "25000" is an int literal; keep the assignment unambiguously
    // floating so narrowing warnings stay quiet.
    return s.find_first_of(".e") == std::string::npos ? s + ".0" : s;
}

std::string
lit(bool v)
{
    return v ? "true" : "false";
}

std::string
lit(unsigned v)
{
    return std::to_string(v);
}

std::string
lit(std::uint64_t v)
{
    return std::to_string(v) + "ull";
}

std::string
lit(CrashRecoveryPolicy v)
{
    return v == CrashRecoveryPolicy::poison
               ? "pipm::CrashRecoveryPolicy::poison"
               : "pipm::CrashRecoveryPolicy::stale";
}

std::string
lit(Scheme s)
{
    switch (s) {
      case Scheme::native: return "pipm::Scheme::native";
      case Scheme::nomad: return "pipm::Scheme::nomad";
      case Scheme::memtis: return "pipm::Scheme::memtis";
      case Scheme::hemem: return "pipm::Scheme::hemem";
      case Scheme::osSkew: return "pipm::Scheme::osSkew";
      case Scheme::hwStatic: return "pipm::Scheme::hwStatic";
      case Scheme::pipmFull: return "pipm::Scheme::pipmFull";
      case Scheme::localOnly: return "pipm::Scheme::localOnly";
      case Scheme::pipmNaive: return "pipm::Scheme::pipmNaive";
    }
    return "pipm::Scheme::pipmFull";
}

std::string
lit(const std::string &s)
{
    return '"' + s + '"';
}

/**
 * Visit every FuzzCase field as (path, value): the SystemConfig field
 * table under "cfg.", then the run fields. The minimizer's equality
 * signature and renderCaseCode() both walk it.
 */
template <typename F>
void
forEachCaseField(const FuzzCase &c, F &&f)
{
    forEachField(c.cfg, [&f](const char *path, const auto &v, KeyGate) {
        f(std::string("cfg.") + path, v);
    });
    f("scheme", c.scheme);
    f("workload", c.workload);
    f("runSeed", c.runSeed);
    f("warmupRefs", c.warmupRefs);
    f("measureRefs", c.measureRefs);
    f("hotLinesPerPage", c.hotLinesPerPage);
    f("seqRunLines", c.seqRunLines);
}

/** The shrink transforms, roughly in decreasing expected payoff. Each
 *  returns a candidate derived from the current best; the caller
 *  repairs, validates and re-runs the oracle before accepting. */
std::vector<std::pair<const char *, FuzzCase (*)(const FuzzCase &)>>
transforms()
{
    using T = FuzzCase (*)(const FuzzCase &);
    return {
        {"drop-all-faults", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault = FaultConfig{};
             return n;
         })},
        {"drop-link-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.linkErrorRate = 0.0;
             n.cfg.fault.retrainIntervalNs = 0.0;
             n.cfg.fault.poisonRate = 0.0;
             n.cfg.fault.migrationAbortRate = 0.0;
             return n;
         })},
        {"drop-crash-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.crashMeanIntervalNs = 0.0;
             return n;
         })},
        {"drop-lease-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.leaseNs = 0.0;
             n.cfg.fault.stallMeanIntervalNs = 0.0;
             return n;
         })},
        {"drop-stalls", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.stallMeanIntervalNs = 0.0;
             return n;
         })},
        {"drop-meta-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.metaCorruptMeanIntervalNs = 0.0;
             return n;
         })},
        {"halve-hosts", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.numHosts = std::max(1u, n.cfg.numHosts / 2);
             return n;
         })},
        {"single-core", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.coresPerHost = 1;
             return n;
         })},
        {"halve-refs", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.measureRefs = std::max<std::uint64_t>(250, n.measureRefs / 2);
             return n;
         })},
        {"no-warmup", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.warmupRefs = 0;
             return n;
         })},
        {"halve-footprint", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.footprintScale *= 2;
             return n;
         })},
        {"baseline-scheme", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.scheme = Scheme::pipmFull;
             return n;
         })},
        {"baseline-workload", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.workload = "ycsb";
             return n;
         })},
        {"baseline-lines", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.hotLinesPerPage = 0;
             n.seqRunLines = 0;
             return n;
         })},
        {"baseline-core", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.core = CoreConfig{};
             return n;
         })},
        {"baseline-caches", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.l1 = d.cfg.l1;
             n.cfg.llcPerCore = d.cfg.llcPerCore;
             n.cfg.l1Scale = d.cfg.l1Scale;
             n.cfg.llcScale = d.cfg.llcScale;
             return n;
         })},
        {"baseline-memory", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.localDram = d.cfg.localDram;
             n.cfg.cxlDram = d.cfg.cxlDram;
             n.cfg.link = d.cfg.link;
             n.cfg.localBytesPerHostFull = d.cfg.localBytesPerHostFull;
             n.cfg.cxlPoolBytesFull = d.cfg.cxlPoolBytesFull;
             return n;
         })},
        {"baseline-pipm", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.pipm = d.cfg.pipm;
             n.cfg.deviceDirectory = d.cfg.deviceDirectory;
             n.cfg.localDirectory = d.cfg.localDirectory;
             return n;
         })},
        {"baseline-os", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.osMigration = d.cfg.osMigration;
             n.cfg.timeScale = d.cfg.timeScale;
             n.cfg.migrationBytesScale = d.cfg.migrationBytesScale;
             return n;
         })},
        {"tlb-off", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.tlb = TlbModelConfig{};
             return n;
         })},
    };
}

} // namespace

std::string
caseSignature(const FuzzCase &c)
{
    std::ostringstream os;
    forEachCaseField(c, [&os](const std::string &path, const auto &v) {
        os << path << '=' << lit(v) << ';';
    });
    return os.str();
}

MinimizedCase
minimizeCase(const FuzzCase &failing, const Oracle &oracle,
             unsigned max_evals)
{
    MinimizedCase out;
    out.best = failing;
    out.failure = oracle.check(failing);
    ++out.evals;
    if (out.failure.ok)    // not actually failing: nothing to shrink
        return out;

    const auto ts = transforms();
    bool improved = true;
    while (improved && out.evals < max_evals) {
        improved = false;
        for (const auto &[name, t] : ts) {
            if (out.evals >= max_evals)
                break;
            FuzzCase cand = t(out.best);
            repairCase(cand);
            if (caseSignature(cand) == caseSignature(out.best))
                continue;   // transform was a no-op here
            if (!caseValid(cand))
                continue;
            const OracleResult res = oracle.check(cand);
            ++out.evals;
            if (!res.ok) {
                out.best = std::move(cand);
                out.failure = res;
                ++out.shrinks;
                improved = true;
            }
        }
    }
    return out;
}

std::string
renderCaseCode(const FuzzCase &c, const std::string &var)
{
    std::ostringstream os;
    os << "    pipm::fuzz::FuzzCase " << var << " = "
       << "pipm::fuzz::defaultCase();\n";
    // Assign only the fields that differ from defaultCase().
    std::vector<std::string> base;
    forEachCaseField(defaultCase(),
                     [&base](const std::string &, const auto &v) {
                         base.push_back(lit(v));
                     });
    std::size_t i = 0;
    forEachCaseField(c, [&](const std::string &path, const auto &v) {
        const std::string value = lit(v);
        if (value != base[i++])
            os << "    " << var << "." << path << " = " << value << ";\n";
    });
    return os.str();
}

std::string
renderRegressionTest(const FuzzCase &c, const std::string &oracle_name,
                     std::uint64_t sample_seed)
{
    std::ostringstream os;
    std::string camel = oracle_name;
    if (!camel.empty())
        camel[0] = static_cast<char>(std::toupper(camel[0]));
    os << "// Minimized reproducer: fuzz seed " << sample_seed
       << ", oracle \"" << oracle_name << "\".\n"
       << "TEST(FuzzRegressions, " << camel << "Seed" << sample_seed
       << ")\n{\n"
       << renderCaseCode(c, "c")
       << "    pipm::fuzz::repairCase(c);\n"
       << "    ASSERT_TRUE(pipm::fuzz::caseValid(c));\n"
       << "    const pipm::fuzz::OracleResult r =\n"
       << "        pipm::fuzz::coreOracle(\"" << oracle_name
       << "\").check(c);\n"
       << "    EXPECT_TRUE(r.ok) << r.detail;\n"
       << "}\n";
    return os.str();
}

} // namespace fuzz
} // namespace pipm
