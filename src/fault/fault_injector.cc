#include "fault/fault_injector.hh"

#include <algorithm>
#include <limits>

namespace pipm
{

namespace
{

/** splitmix64 finaliser: a stateless hash usable as an RNG draw. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Uniform [0,1) from a stateless hash of (seed, key). */
double
hashU01(std::uint64_t seed, std::uint64_t key)
{
    return static_cast<double>(mix(seed ^ mix(key)) >> 11) * 0x1.0p-53;
}

} // namespace

FaultInjector::FaultInjector(const FaultConfig &cfg, unsigned num_hosts,
                             std::uint64_t seed)
    : cfg_(cfg),
      numHosts_(num_hosts),
      seed_(seed),
      rng_(seed),
      retrainInterval_(nsToCycles(cfg.retrainIntervalNs)),
      retrainWindow_(nsToCycles(cfg.retrainWindowNs)),
      retrainPhase_(num_hosts, 0),
      lastRetrainEpoch_(num_hosts,
                        std::numeric_limits<std::uint64_t>::max()),
      stallWindows_(num_hosts),
      stallCounted_(num_hosts, 0),
      stats_("fault")
{
    // Spread the hosts' retraining windows over the period so that at
    // most one link is usually down at a time.
    if (retrainInterval_ > 0) {
        for (unsigned h = 0; h < num_hosts; ++h)
            retrainPhase_[h] = mix(seed ^ (h + 1)) % retrainInterval_;
    }
    stats_.addCounter(&linkErrors, "link_errors",
                      "CRC-corrupted link messages replayed");
    stats_.addCounter(&retrainEvents, "retrain_events",
                      "link retraining windows entered");
    stats_.addCounter(&retrainStallCycles, "retrain_stall_cycles",
                      "cycles messages waited on a retraining link");
    stats_.addCounter(&poisonTransient, "poison_transient",
                      "transiently poisoned lines hit (ECC retry)");
    stats_.addCounter(&poisonPersistent, "poison_persistent",
                      "persistently poisoned lines discovered");
    stats_.addCounter(&degradedAccesses, "degraded_accesses",
                      "accesses served by the degraded uncached path");
    stats_.addCounter(&promotionAborts, "promotion_aborts",
                      "partial migrations aborted and rolled back");
    stats_.addCounter(&lineAborts, "line_aborts",
                      "incremental line migrations aborted");
    stats_.addCounter(&migrationsDeferred, "migrations_deferred",
                      "vote firings suppressed by link-error backoff");
    stats_.addCounter(&backoffEntries, "backoff_entries",
                      "times migration backoff was (re-)armed");
    stats_.addCounter(&hostCrashes, "host_crashes",
                      "host fail-stop crash events processed");
    stats_.addCounter(&hostRejoins, "host_rejoins",
                      "host rejoin events processed");
    stats_.addCounter(&crashDirSwept, "crash_dir_swept",
                      "directory entries reclaimed by crash sweeps");
    stats_.addCounter(&crashLinesReclaimed, "crash_lines_reclaimed",
                      "migrated lines reintegrated after a crash");
    stats_.addCounter(&crashPagesReclaimed, "crash_pages_reclaimed",
                      "remap/GIM pages reclaimed after a crash");
    stats_.addCounter(&crashDirtyLinesLost, "crash_dirty_lines_lost",
                      "lines whose latest value died with a host");
    stats_.addCounter(&crashRecoveryCycles, "crash_recovery_cycles",
                      "device cycles spent on crash reclamation");
    stats_.addCounter(&staleEpochDrops, "stale_epoch_drops",
                      "stale-epoch references rejected");
    if (cfg.leaseNs > 0.0) {
        // Registered only under a lease so that oracle-mode stats.json
        // exports keep the exact counter set they had before detection
        // existed (byte-identity of the crash-schedule exports).
        stats_.addCounter(&suspicions, "suspicions",
                          "hosts suspected by the lease detector");
        stats_.addCounter(&falseSuspicions, "false_suspicions",
                          "suspicions of hosts that were actually alive");
        stats_.addCounter(&fencedRequests, "fenced_requests",
                          "stale-epoch zombie requests NACKed");
        stats_.addCounter(&txnTimeouts, "txn_timeouts",
                          "coherence-transaction attempts timed out");
        stats_.addCounter(&txnRetries, "txn_retries",
                          "timed-out coherence transactions retried");
        stats_.addCounter(&txnAbandoned, "txn_abandoned",
                          "transactions abandoned after the retry budget");
        stats_.addCounter(&stallWindowsEntered, "stall_windows",
                          "gray-failure stall windows entered");
    }
    if (cfg.metaCorruptMeanIntervalNs > 0.0) {
        // Registered only when the metadata fault domain is on, so
        // corruption-off stats.json exports stay byte-identical to the
        // pre-§12 counter set.
        stats_.addCounter(&metaCorruptions, "meta_corruptions",
                          "metadata corruption events applied");
        stats_.addCounter(&metaCorruptSkipped, "meta_corrupt_skipped",
                          "corruption events that found no victim entry");
        stats_.addCounter(&metaScrubChecks, "meta_scrub_checks",
                          "quarantined metadata entries validated");
        stats_.addCounter(&metaScrubRepairs, "meta_scrub_repairs",
                          "metadata entries rebuilt from host state");
        stats_.addCounter(&metaJournalReplays, "meta_journal_replays",
                          "remap entries replayed from the redo journal");
        stats_.addCounter(&metaUnrepairable, "meta_unrepairable",
                          "shadow-checksum hits degraded or reclaimed");
        stats_.addCounter(&metaBreakerTrips, "meta_breaker_trips",
                          "migration circuit breakers opened");
        stats_.addCounter(&metaBreakerHalfOpens, "meta_breaker_half_opens",
                          "migration breakers half-opened after cool-down");
        breakerWindow_ = nsToCycles(cfg.metaBreakerWindowNs);
        breakerCooldown_ = nsToCycles(cfg.metaBreakerCooldownNs);
    }
    generateCrashSchedule();
    generateStallSchedule();
    generateMetaSchedule();
}

void
FaultInjector::generateMetaSchedule()
{
    if (cfg_.metaCorruptMeanIntervalNs <= 0.0)
        return;
    // A dedicated "meta-ev" stream (like the crash and stall schedules):
    // enabling metadata corruption must not move any other fault draw.
    Rng mrng(seed_ ^ 0x6d6574612d6576ull);
    const Cycles mean = nsToCycles(cfg_.metaCorruptMeanIntervalNs);

    Cycles t = 0;
    for (unsigned k = 0; k < cfg_.metaCorruptMaxEvents; ++k) {
        // Uniform spacing in [0.5, 1.5] x mean, matching the crash and
        // stall spacing law.
        t += mean / 2 + mrng.range(0, mean > 0 ? mean : 1);
        MetaCorruptEvent ev;
        ev.at = t;
        ev.pick = mrng.next();
        ev.bits = mrng.next() | 1;   // at least one bit flips
        ev.remapTarget = mrng.chance(0.5);
        ev.shadowHit = mrng.chance(cfg_.metaShadowHitFrac);
        metaSchedule_.push_back(ev);
    }
}

const MetaCorruptEvent *
FaultInjector::nextMetaCorruptEvent(Cycles now)
{
    if (metaCursor_ >= metaSchedule_.size())
        return nullptr;
    const MetaCorruptEvent &ev = metaSchedule_[metaCursor_];
    if (ev.at > now)
        return nullptr;
    ++metaCursor_;
    return &ev;
}

void
FaultInjector::noteMetaRepair(PageFrame page, Cycles now)
{
    const std::uint64_t g = page / cfg_.metaBreakerGroupPages;
    Breaker &b = breakers_[g];
    if (now - b.windowStart > breakerWindow_) {
        b.strikes = 0;
        b.windowStart = now;
    }
    if (b.open)
        return;   // already shedding; further strikes change nothing
    ++b.strikes;
    if (b.strikes >= cfg_.metaBreakerThreshold) {
        b.open = true;
        b.openUntil = now + breakerCooldown_ * (Cycles{1} << b.exp);
        if (b.exp < cfg_.metaBreakerMaxExp)
            ++b.exp;
        b.strikes = 0;
        if (!b.hot) {
            b.hot = true;
            hotBreakers_.push_back(g);
        }
        metaBreakerTrips.inc();
        if (trace_) {
            trace_->record(ObsEventType::breakerTrip, now,
                           g * cfg_.metaBreakerGroupPages, invalidHost,
                           b.exp);
        }
    }
}

bool
FaultInjector::migrationShed(PageFrame page, Cycles now) const
{
    if (breakers_.empty())
        return false;
    const auto it = breakers_.find(page / cfg_.metaBreakerGroupPages);
    return it != breakers_.end() && it->second.open &&
           now < it->second.openUntil;
}

void
FaultInjector::advanceBreakers(Cycles now)
{
    for (std::size_t i = 0; i < hotBreakers_.size();) {
        const std::uint64_t g = hotBreakers_[i];
        Breaker &b = breakers_.find(g)->second;
        if (b.open && now >= b.openUntil) {
            // Cool-down elapsed: half-open. Demand traffic was never
            // blocked; migrations resume on probation.
            b.open = false;
            b.halfOpenAt = now;
            b.strikes = 0;
            b.windowStart = now;
            metaBreakerHalfOpens.inc();
            if (trace_) {
                trace_->record(ObsEventType::breakerHalfOpen, now,
                               g * cfg_.metaBreakerGroupPages, invalidHost,
                               b.exp);
            }
        }
        if (!b.open && b.exp > 0 && b.strikes == 0 &&
            now >= b.halfOpenAt + breakerWindow_) {
            // A full clean window on probation: forget the trip history
            // so the next trip starts from the base cool-down again.
            b.exp = 0;
        }
        if (!b.open && b.exp == 0) {
            b.hot = false;
            hotBreakers_[i] = hotBreakers_.back();
            hotBreakers_.pop_back();
        } else {
            ++i;
        }
    }
}

Cycles
FaultInjector::nextBreakerEventAt() const
{
    Cycles next = maxCycles;
    for (const std::uint64_t g : hotBreakers_) {
        const Breaker &b = breakers_.find(g)->second;
        if (b.open) {
            next = std::min(next, b.openUntil);
        } else if (b.exp > 0 && b.strikes == 0) {
            next = std::min(next, b.halfOpenAt + breakerWindow_);
        }
        // !open && exp > 0 && strikes > 0: only noteMetaRepair() can move
        // this breaker, and its call sites invalidate the cached horizon.
    }
    return next;
}

void
FaultInjector::generateCrashSchedule()
{
    if (cfg_.crashMeanIntervalNs <= 0.0)
        return;
    // A dedicated stream: the ordered link/migration draws in rng_ must
    // not move when crashes are enabled (zero-crash bit-identity).
    Rng crng(seed_ ^ 0x63726173682d6576ull);
    const Cycles mean = nsToCycles(cfg_.crashMeanIntervalNs);
    const Cycles down =
        cfg_.crashRejoinNs > 0.0 ? nsToCycles(cfg_.crashRejoinNs) : 0;

    std::vector<Cycles> downUntil(numHosts_, 0);   ///< 0: host is up
    Cycles t = 0;
    for (unsigned k = 0; k < cfg_.crashMaxEvents; ++k) {
        // Uniform spacing in [0.5, 1.5] x mean.
        t += mean / 2 + crng.range(0, mean > 0 ? mean : 1);
        unsigned alive = 0;
        for (unsigned h = 0; h < numHosts_; ++h) {
            if (downUntil[h] != 0 && downUntil[h] <= t)
                downUntil[h] = 0;   // rejoined by now
            if (downUntil[h] == 0)
                ++alive;
        }
        // Never crash the last alive host: the machine must make
        // progress so the schedule stays reachable.
        if (alive <= 1)
            continue;
        std::uint64_t pick = crng.range(0, alive - 1);
        HostId victim = invalidHost;
        for (unsigned h = 0; h < numHosts_; ++h) {
            if (downUntil[h] != 0)
                continue;
            if (pick-- == 0) {
                victim = static_cast<HostId>(h);
                break;
            }
        }
        CrashEvent ev;
        ev.at = t;
        ev.host = victim;
        ev.rejoin = false;
        ev.downUntil = down ? t + down : maxCycles;
        crashSchedule_.push_back(ev);
        downUntil[victim] = down ? t + down : maxCycles;
        if (down) {
            CrashEvent re;
            re.at = t + down;
            re.host = victim;
            re.rejoin = true;
            re.downUntil = 0;
            crashSchedule_.push_back(re);
        }
    }
    // eventBefore is a strict total order (time, rejoin-first, host):
    // the old comparator left same-instant same-kind events in an
    // unspecified relative order, so the processed sequence depended on
    // the std::sort implementation.
    std::sort(crashSchedule_.begin(), crashSchedule_.end(), &eventBefore);
}

void
FaultInjector::generateStallSchedule()
{
    if (cfg_.stallMeanIntervalNs <= 0.0)
        return;
    // A dedicated stream (like the crash schedule): enabling stall
    // windows must not move the crash schedule or any ordered draw.
    Rng srng(seed_ ^ 0x7374616c6c2d6576ull);
    const Cycles mean = nsToCycles(cfg_.stallMeanIntervalNs);
    const Cycles window = nsToCycles(cfg_.stallWindowNs);

    Cycles t = 0;
    for (unsigned k = 0; k < cfg_.stallMaxEvents; ++k) {
        // Uniform spacing in [0.5, 1.5] x mean, matching the crash
        // schedule's spacing law.
        t += mean / 2 + srng.range(0, mean > 0 ? mean : 1);
        const HostId victim =
            static_cast<HostId>(srng.range(0, numHosts_ - 1));
        const Cycles dur =
            window / 2 + srng.range(0, window > 0 ? window : 1);
        auto &wins = stallWindows_[victim];
        // Windows are generated in increasing start order; merge a new
        // window that begins inside the previous one instead of letting
        // them overlap, so stallUntil can binary-search.
        if (!wins.empty() && wins.back().second > t)
            wins.back().second = std::max(wins.back().second, t + dur);
        else
            wins.emplace_back(t, t + dur);
    }
}

Cycles
FaultInjector::stallUntilAt(HostId h, Cycles now) const
{
    const auto &wins = stallWindows_[h];
    // Last window starting at or before `now`.
    auto it = std::upper_bound(
        wins.begin(), wins.end(), now,
        [](Cycles t, const std::pair<Cycles, Cycles> &w) {
            return t < w.first;
        });
    if (it == wins.begin())
        return 0;
    --it;
    return now < it->second ? it->second : 0;
}

Cycles
FaultInjector::stallUntil(HostId h, Cycles now)
{
    const Cycles until = stallUntilAt(h, now);
    if (until == 0)
        return 0;
    const auto &wins = stallWindows_[h];
    const std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(wins.begin(), wins.end(), now,
                         [](Cycles t, const std::pair<Cycles, Cycles> &w) {
                             return t < w.first;
                         }) -
        wins.begin());   // 1 + index of the covering window
    if (idx > stallCounted_[h]) {
        stallCounted_[h] = idx;
        stallWindowsEntered.inc();
        if (trace_) {
            trace_->record(ObsEventType::stallWindow, now, 0, h,
                           static_cast<std::uint32_t>(until - now));
        }
    }
    return until;
}

std::uint64_t
FaultInjector::hashDraw(std::uint64_t key) const
{
    return mix(seed_ ^ 0x74786e2d6a697474ull ^ mix(key));
}

const CrashEvent *
FaultInjector::nextCrashEvent(Cycles now)
{
    if (crashCursor_ >= crashSchedule_.size())
        return nullptr;
    const CrashEvent &ev = crashSchedule_[crashCursor_];
    if (ev.at > now)
        return nullptr;
    ++crashCursor_;
    return &ev;
}

bool
FaultInjector::corruptMessage(Cycles now)
{
    if (cfg_.linkErrorRate <= 0.0)
        return false;
    const bool corrupted = rng_.chance(cfg_.linkErrorRate);
    ++windowMessages_;
    if (corrupted) {
        ++windowErrors_;
        linkErrors.inc();
    }
    if (windowMessages_ >= cfg_.backoffWindow) {
        const double rate = static_cast<double>(windowErrors_) /
                            static_cast<double>(windowMessages_);
        if (rate > cfg_.backoffThreshold) {
            backoffUntil_ =
                now + nsToCycles(cfg_.backoffBaseNs) *
                          (Cycles{1} << backoffExp_);
            if (backoffExp_ < cfg_.backoffMaxExp)
                ++backoffExp_;
            backoffEntries.inc();
            if (trace_) {
                trace_->record(ObsEventType::backoffArmed, now, 0,
                               invalidHost, backoffExp_);
            }
        } else if (now >= backoffUntil_) {
            // A healthy window after the backoff drained: full reset.
            backoffExp_ = 0;
        }
        windowMessages_ = 0;
        windowErrors_ = 0;
    }
    return corrupted;
}

Cycles
FaultInjector::retrainDelay(HostId h, Cycles now)
{
    if (retrainInterval_ == 0)
        return 0;
    const Cycles t = now + retrainPhase_[h];
    const Cycles into = t % retrainInterval_;
    if (into >= retrainWindow_)
        return 0;
    const std::uint64_t epoch = t / retrainInterval_;
    if (epoch != lastRetrainEpoch_[h]) {
        lastRetrainEpoch_[h] = epoch;
        retrainEvents.inc();
        if (trace_) {
            trace_->record(ObsEventType::retrainWindow, now, 0, h,
                           static_cast<std::uint32_t>(retrainWindow_ - into));
        }
    }
    const Cycles delay = retrainWindow_ - into;
    retrainStallCycles.inc(delay);
    return delay;
}

PoisonState
FaultInjector::poisonCheck(LineAddr line)
{
    // The memo comes first: crash recovery (policy `poison`) can force a
    // line persistently poisoned even when the random poison rate is 0.
    auto it = poison_.find(line);
    if (it != poison_.end())
        return it->second;
    if (cfg_.poisonRate <= 0.0)
        return PoisonState::clean;
    // Stateless per-line draw: independent of access order, so the same
    // lines are poisoned regardless of which host finds them first. A
    // clean draw is not memoised: the next check draws clean again.
    if (hashU01(seed_, line) >= cfg_.poisonRate)
        return PoisonState::clean;
    if (hashU01(seed_ ^ 0x706f69736f6e2137ull, line) <
        cfg_.persistentPoisonFrac) {
        poisonPersistent.inc();
        poison_[line] = PoisonState::persistentPoison;
        return PoisonState::persistentPoison;
    }
    // The ECC retry scrubs transient poison: later checks see clean.
    poisonTransient.inc();
    poison_[line] = PoisonState::clean;
    return PoisonState::transientPoison;
}

bool
FaultInjector::linePersistentlyPoisoned(LineAddr line) const
{
    auto it = poison_.find(line);
    return it != poison_.end() &&
           it->second == PoisonState::persistentPoison;
}

void
FaultInjector::poisonLineForever(LineAddr line)
{
    auto it = poison_.find(line);
    if (it != poison_.end() && it->second == PoisonState::persistentPoison)
        return;
    poison_[line] = PoisonState::persistentPoison;
    poisonPersistent.inc();
}

bool
FaultInjector::abortPromotion()
{
    if (cfg_.migrationAbortRate <= 0.0)
        return false;
    if (!rng_.chance(cfg_.migrationAbortRate))
        return false;
    promotionAborts.inc();
    return true;
}

bool
FaultInjector::abortLineMigration()
{
    if (cfg_.migrationAbortRate <= 0.0)
        return false;
    if (!rng_.chance(cfg_.migrationAbortRate))
        return false;
    lineAborts.inc();
    return true;
}

} // namespace pipm
