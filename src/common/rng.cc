#include "common/rng.hh"

#include <bit>
#include <map>
#include <mutex>
#include <utility>

namespace pipm
{

double
ZipfSampler::zeta(std::uint64_t n, double theta)
{
    constexpr std::uint64_t cutoff = 100000;
    double sum = 0.0;
    const std::uint64_t m = n < cutoff ? n : cutoff;
    for (std::uint64_t i = 1; i <= m; ++i)
        sum += std::pow(1.0 / static_cast<double>(i), theta);
    if (n > cutoff) {
        const double a = static_cast<double>(cutoff);
        const double b = static_cast<double>(n);
        sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
               (1.0 - theta);
    }
    return sum;
}

double
ZipfSampler::normaliser(std::uint64_t n, double theta)
{
    // Keyed on theta's bit pattern: two thetas share an entry only when
    // they are the same double. A process sees a handful of pairs (one
    // per partition size and skew), so the table is never trimmed.
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    static std::mutex mutex;
    static std::map<Key, double> table;
    const Key key{n, std::bit_cast<std::uint64_t>(theta)};
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = table.find(key);
        if (it != table.end())
            return it->second;
    }
    // Computed outside the lock so sweep workers on other pairs do not
    // wait; a pair raced by two threads gets the same value twice.
    const double z = zeta(n, theta);
    std::lock_guard<std::mutex> lock(mutex);
    return table.emplace(key, z).first->second;
}

} // namespace pipm
