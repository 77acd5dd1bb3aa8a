#include "verify/fault_schedule.hh"

#include <map>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace pipm
{

FaultCheckResult
checkFaultSchedules(const SystemConfig &cfg, Scheme scheme,
                    unsigned schedules,
                    std::uint64_t accesses_per_schedule, std::uint64_t seed)
{
    fatal_if(!cfg.fault.enabled,
             "checkFaultSchedules needs a fault-enabled configuration");
    FaultCheckResult res;
    res.schedules = schedules;

    constexpr std::uint64_t shared_pages = 48;
    ThrowOnErrorScope guard;

    for (unsigned sched = 0; sched < schedules && res.violation.empty();
         ++sched) {
        SystemConfig fcfg = cfg;
        fcfg.fault.seed = seed + 977 * (sched + 1);
        // The last-writer oracle below reads values back.
        fcfg.trackValues = true;
        FootprintWorkload workload(shared_pages * pageBytes, 4 * pageBytes);
        Rng rng(seed * 0x51ed2701 + sched);

        try {
            MultiHostSystem system(fcfg, scheme, workload,
                                   seed + 13 * sched);
            // Per-(page,line) last written token; absent means the line
            // still holds its pristine value, which we do not predict.
            std::map<std::pair<std::uint64_t, unsigned>, std::uint64_t>
                oracle;
            std::uint64_t token = 1;
            Cycles now = 0;
            // Crash-mode bookkeeping: lines the system declared lost are
            // dropped from the oracle (their stale device value becomes
            // the accepted answer until the next write).
            std::size_t lost_cursor = 0;
            auto sync_lost = [&]() {
                const auto &lost = system.lostLines();
                for (; lost_cursor < lost.size(); ++lost_cursor) {
                    const LineAddr line = lost[lost_cursor];
                    const auto idx =
                        system.space().sharedIndexOf(pageOfLine(line));
                    if (!idx)
                        continue;
                    oracle.erase(
                        {*idx, static_cast<unsigned>(
                                   line & (linesPerPage - 1))});
                }
            };

            for (std::uint64_t i = 0; i < accesses_per_schedule; ++i) {
                const std::uint64_t page = rng.range(0, shared_pages - 1);
                // Skew accesses toward one host per page so the vote can
                // fire and partial migrations (and their aborts) happen.
                const HostId favoured =
                    static_cast<HostId>(page % fcfg.numHosts);
                HostId h =
                    rng.chance(0.8)
                        ? favoured
                        : static_cast<HostId>(
                              rng.range(0, fcfg.numHosts - 1));
                // Crashed hosts issue nothing, and a gray-failed host is
                // stuck until its stall window ends; rotate to the next
                // responsive host, jumping time forward when none is
                // (bounded — stall windows and fences always end).
                unsigned spins = 0;
                unsigned jumps = 0;
                while (!system.hostResponsive(h, now)) {
                    h = static_cast<HostId>((h + 1) % fcfg.numHosts);
                    if (++spins >= fcfg.numHosts) {
                        spins = 0;
                        now += 256;
                        system.tick(now);
                        sync_lost();
                        if (++jumps > 4'000'000) {
                            panic("no host became responsive after ",
                                  jumps, " time jumps");
                        }
                    }
                }
                const CoreId c = static_cast<CoreId>(
                    rng.range(0, fcfg.coresPerHost - 1));
                const unsigned line =
                    static_cast<unsigned>(rng.range(0, linesPerPage - 1));
                const bool is_write = rng.chance(0.5);

                MemRef ref;
                ref.shared = true;
                ref.page = page;
                ref.lineIdx = static_cast<std::uint8_t>(line);
                ref.op = is_write ? MemOp::write : MemOp::read;

                if (is_write) {
                    const std::uint64_t value = token++;
                    system.access(h, c, ref, now, value);
                    // Retry exhaustion inside the access may have fenced
                    // a host and lost lines; resync before recording.
                    sync_lost();
                    oracle[{page, line}] = value;
                } else {
                    const AccessResult r = system.access(h, c, ref, now);
                    sync_lost();
                    auto it = oracle.find({page, line});
                    if (it != oracle.end() && r.data != it->second) {
                        res.violation = detail::concat(
                            "schedule ", sched, " access ", i, ": read of ",
                            "page ", page, " line ", line, " returned ",
                            r.data, ", expected ", it->second);
                        break;
                    }
                }
                now += rng.range(1, 500);
                system.tick(now);
                sync_lost();
                if ((i & 0x7ff) == 0x7ff)
                    system.checkInvariants();
            }
            if (res.violation.empty())
                system.checkInvariants();

            res.accesses += accesses_per_schedule;
            addCounterFields(system, res.totals);
        } catch (const SimError &e) {
            res.violation = detail::concat("schedule ", sched,
                                           " panicked: ", e.message);
        }
    }

    res.ok = res.violation.empty();
    return res;
}

} // namespace pipm
