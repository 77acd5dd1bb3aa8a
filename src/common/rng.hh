/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in the simulator (workload generation, random
 * replacement, tie-breaking) draws from explicitly seeded Rng instances so
 * that every experiment is reproducible bit-for-bit. The core generator is
 * xoshiro256**, which is fast and has no observable bias at our scales.
 */

#ifndef PIPM_COMMON_RNG_HH
#define PIPM_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace pipm
{

/** xoshiro256** pseudo-random generator with convenience distributions. */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire-style rejection-free multiply-shift; bias is < 2^-64 * bound
        // which is negligible for simulation purposes.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        return real() < p;
    }

  private:
    std::uint64_t state_[4];
};

/**
 * Zipfian rank sampler over [0, n) with skew parameter theta, using the
 * Gray et al. approximation (the same construction YCSB uses). Rank 0 is
 * the hottest item.
 *
 * The normaliser zeta(n, theta) costs up to 100k pow() calls, and every
 * core of every run builds a sampler over the same few (n, theta) pairs,
 * so it is computed once per pair per process (normaliser()) and shared.
 * After the first sampler of a pair, construction is O(1).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta)
        : n_(n), theta_(theta), zetan_(normaliser(n, theta))
    {
        zeta2_ = zeta(2, theta_);
        alpha_ = 1.0 / (1.0 - theta_);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
               (1.0 - zeta2_ / zetan_);
        halfPowTheta_ = std::pow(0.5, theta_);
    }

    /** Draw a rank in [0, n). */
    std::uint64_t
    sample(Rng &rng) const
    {
        const double u = rng.real();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + halfPowTheta_)
            return 1;
        const auto rank = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return rank >= n_ ? n_ - 1 : rank;
    }

    std::uint64_t itemCount() const { return n_; }

    /**
     * Generalised harmonic number sum_{i=1..n} i^-theta: exact up to a
     * cutoff of 100k terms, then the Euler-Maclaurin tail (accurate to
     * well under 0.1% for the n we use). Up to 100k pow() calls; not
     * cached.
     */
    static double zeta(std::uint64_t n, double theta);

    /**
     * zeta(n, theta), computed on the first call for a given (n, theta)
     * and served from a process-wide table after that. Bit-identical to
     * zeta(); safe to call from concurrent threads.
     */
    static double normaliser(std::uint64_t n, double theta);

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;
    double zeta2_;
    double alpha_;
    double eta_;
    double halfPowTheta_;   ///< pow(0.5, theta), hoisted off the draw path
};

} // namespace pipm

#endif // PIPM_COMMON_RNG_HH
