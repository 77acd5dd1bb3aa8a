#include "obs/metrics_registry.hh"

#include "common/logging.hh"

namespace pipm
{

void
MetricsRegistry::addGroup(const StatGroup &group, const std::string &prefix)
{
    panic_if(begun_, "MetricsRegistry: addGroup after begin()");
    const std::string base = prefix + group.name() + ".";
    group.forEachCounter([&](const std::string &name, const Counter &c) {
        schema_.counters.push_back(base + name);
        counters_.push_back({&c});
    });
    group.forEachAverage([&](const std::string &name, const Average &a) {
        schema_.averages.push_back(base + name);
        averages_.push_back({&a});
    });
    // Histograms are not registered: only StatGroup::dump prints them.
    // A per-interval histogram delta is rarely meaningful and would
    // multiply the schema size.
}

void
MetricsRegistry::begin()
{
    lastCounters_.resize(counters_.size());
    lastAvgSums_.resize(averages_.size());
    lastAvgCounts_.resize(averages_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i)
        lastCounters_[i] = counters_[i].stat->value();
    for (std::size_t i = 0; i < averages_.size(); ++i) {
        lastAvgSums_[i] = averages_[i].stat->sum();
        lastAvgCounts_[i] = averages_[i].stat->count();
    }
    lastAccess_ = 0;
    begun_ = true;
    intervals_.clear();
}

void
MetricsRegistry::closeInterval(std::uint64_t end_access, Cycles end_cycle)
{
    panic_if(!begun_, "MetricsRegistry: closeInterval before begin()");
    if (end_access == lastAccess_ && !intervals_.empty())
        return;

    IntervalSample s;
    s.startAccess = lastAccess_;
    s.endAccess = end_access;
    s.endCycle = end_cycle;
    s.counterDeltas.resize(counters_.size());
    s.averageMeans.resize(averages_.size());

    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const std::uint64_t now = counters_[i].stat->value();
        s.counterDeltas[i] = now - lastCounters_[i];
        lastCounters_[i] = now;
    }
    for (std::size_t i = 0; i < averages_.size(); ++i) {
        const double sum = averages_[i].stat->sum();
        const std::uint64_t count = averages_[i].stat->count();
        const std::uint64_t dn = count - lastAvgCounts_[i];
        s.averageMeans[i] = dn ? (sum - lastAvgSums_[i]) / double(dn) : 0.0;
        lastAvgSums_[i] = sum;
        lastAvgCounts_[i] = count;
    }

    lastAccess_ = end_access;
    intervals_.push_back(std::move(s));
}

std::uint64_t
MetricsRegistry::counterTotal(const std::string &name) const
{
    for (std::size_t i = 0; i < schema_.counters.size(); ++i) {
        if (schema_.counters[i] != name)
            continue;
        std::uint64_t total = 0;
        for (const IntervalSample &s : intervals_)
            total += s.counterDeltas[i];
        return total;
    }
    return 0;
}

} // namespace pipm
