#include "sim/rng.hpp"

#include <cmath>

namespace hivemind::sim {

namespace {

/** High 64 bits of the exact 128-bit product a * b. */
std::uint64_t
mul_hi(std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t mask = 0xffffffffu;
    const std::uint64_t ll = (a & mask) * (b & mask);
    const std::uint64_t lh = (a & mask) * (b >> 32);
    const std::uint64_t hl = (a >> 32) * (b & mask);
    const std::uint64_t hh = (a >> 32) * (b >> 32);
    const std::uint64_t mid = (ll >> 32) + (lh & mask) + (hl & mask);
    return hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    // splitmix64: distinct inputs through a bijective mixer, so at
    // most one of the four words can be zero.
    for (std::uint64_t& word : s_) {
        std::uint64_t z = (seed += 0x9e3779b97f4a7c15u);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
        word = z ^ (z >> 31);
    }
}

std::int64_t
Rng::uniform_int(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (range == 0)  // [INT64_MIN, INT64_MAX]: every draw is in range.
        return static_cast<std::int64_t>(next());
    // x * range spans [0, range * 2^64); its high word is the result.
    // Low words below 2^64 mod range mark the over-represented draws.
    std::uint64_t x = next();
    if (x * range < range) {
        const std::uint64_t threshold = (0 - range) % range;
        while (x * range < threshold)
            x = next();
    }
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     mul_hi(x, range));
}

double
Rng::polar_pair()
{
    double u;
    double v;
    double s;
    do {
        u = 2.0 * canonical() - 1.0;
        v = 2.0 * canonical() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * scale;
    has_spare_ = true;
    return u * scale;
}

double
Rng::bounded_pareto(double lo, double hi, double alpha)
{
    // Inverse-CDF sampling of the bounded Pareto distribution.
    double u = uniform(0.0, 1.0);
    double la = std::pow(lo, alpha);
    double ha = std::pow(hi, alpha);
    double x = -(u * ha - u * la - ha) / (ha * la);
    return std::pow(x, -1.0 / alpha);
}

}  // namespace hivemind::sim
