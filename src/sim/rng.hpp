#pragma once

/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * Every source of randomness in HiveMind flows through an Rng seeded
 * explicitly by the experiment harness, so that any run is exactly
 * reproducible. The distributions here (lognormal service times,
 * exponential arrivals, bounded pareto tails) are the standard
 * building blocks for the queueing-network models the paper's
 * simulator is based on (Sec. 5.6).
 *
 * The engine is xoshiro256** (Blackman and Vigna, "Scrambled linear
 * pseudorandom number generators", ACM TOMS 2021) and every variate is
 * a fixed algorithm over its raw 64-bit draws, so a seed replays the
 * same stream under any standard library. Two things are assumed
 * (DESIGN.md §7): libm rounds log, exp and pow alike, and the compiler
 * fuses no multiply-add.
 */

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hivemind::sim {

/** Seeded pseudo-random generator with convenience distributions. */
class Rng
{
  public:
    /**
     * Construct with an explicit seed; identical seeds replay runs.
     * Four splitmix64 steps fill the state, which is never all zero.
     */
    explicit Rng(std::uint64_t seed);

    /** Next raw 64-bit draw of the xoshiro256** engine. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * canonical();
    }

    /**
     * Uniform integer in [lo, hi] inclusive: Lemire's multiply-shift
     * with rejection ("Fast random integer generation in an interval",
     * ACM TOMACS 2019), unbiased for every range.
     */
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return canonical() < p;
    }

    /** Exponential variate with the given mean (not rate): inverse CDF. */
    double
    exponential(double mean)
    {
        return -mean * std::log(1.0 - canonical());
    }

    /** Normal variate (Marsaglia's polar method). */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * standard_normal();
    }

    /**
     * Lognormal variate parameterized by its median and the sigma of
     * the underlying normal. Service times in serverless stacks are
     * well described by lognormals (heavy right tail).
     */
    double
    lognormal_median(double median, double sigma)
    {
        return median * std::exp(sigma * standard_normal());
    }

    /**
     * Bounded Pareto variate on [lo, hi] with shape @p alpha; used for
     * the occasional extreme straggler.
     */
    double bounded_pareto(double lo, double hi, double alpha);

    /** Pick an index in [0, n) uniformly. */
    std::size_t pick(std::size_t n)
    {
        return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(
                uniform_int(0, static_cast<std::int64_t>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (stable given call order). */
    Rng fork() { return Rng(next()); }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** The top 53 bits of one draw as a double in [0, 1). */
    double
    canonical()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** N(0, 1); each polar pair serves two calls. */
    double
    standard_normal()
    {
        if (has_spare_) {
            has_spare_ = false;
            return spare_;
        }
        return polar_pair();
    }

    /** Draw a fresh polar pair: return one value, keep the other. */
    double polar_pair();

    std::uint64_t s_[4];
    double spare_ = 0.0;
    bool has_spare_ = false;
};

static_assert(sizeof(Rng) <= 64, "an Rng stream must stay within 64 bytes");

}  // namespace hivemind::sim
