/**
 * @file
 * Randomised fault-schedule checking: the fault-enabled companion to the
 * BFS protocol checker. The BFS model cannot see injected faults — a CRC
 * replay is latency-only and an aborted promotion is an atomic no-op at
 * the protocol level — so instead this checker drives the full
 * MultiHostSystem under many independently-seeded fault schedules with a
 * host-skewed random access pattern, maintains a per-line last-writer
 * oracle, and checks after every access that reads return the oracle
 * value, with the cross-structure invariants (SWMR, directory precision,
 * remap-table consistency, poisoned-lines-uncached) asserted at regular
 * intervals. A panic anywhere in the machine is captured as a violation
 * rather than aborting the process.
 */

#ifndef PIPM_VERIFY_FAULT_SCHEDULE_HH
#define PIPM_VERIFY_FAULT_SCHEDULE_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"

namespace pipm
{

/** Result of a fault-schedule checking run. */
struct FaultCheckResult
{
    bool ok = false;
    unsigned schedules = 0;       ///< fault schedules explored
    std::uint64_t accesses = 0;   ///< total accesses driven
    /** Every counter field, summed over the schedules that completed. */
    RunResult totals;
    std::string violation;        ///< empty when ok
};

/**
 * Drive `schedules` independently-seeded fault schedules of
 * `accesses_per_schedule` random accesses each against `cfg` and check
 * data and invariants throughout.
 *
 * Whatever failure machinery `cfg.fault` enables is exercised: with a
 * crash schedule only alive hosts issue accesses, and a read must return
 * either the last-writer oracle value or a stale value for a line the
 * system explicitly reported lost (MultiHostSystem::lostLines()) — to a
 * crash, a fence or the metadata domain's degraded fallback.
 *
 * @param cfg configuration; `cfg.fault` (which must be enabled) is the
 *        schedule template, reseeded per schedule
 * @param scheme memory-management scheme under test
 * @param seed determinism seed for the access pattern and the schedules
 */
FaultCheckResult checkFaultSchedules(const SystemConfig &cfg, Scheme scheme,
                                     unsigned schedules,
                                     std::uint64_t accesses_per_schedule,
                                     std::uint64_t seed = 1);

} // namespace pipm

#endif // PIPM_VERIFY_FAULT_SCHEDULE_HH
