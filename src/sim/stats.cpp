#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace hivemind::sim {

namespace {

/** RateMeter's averaging interval: every figure reports per-second rates. */
constexpr Time kRateWindow = kSecond;

}  // namespace

void
Summary::add(double x)
{
    samples_.push_back(x);
    sum_ += x;
    sum_sq_ += x * x;
    sorted_valid_ = false;
}

double
Summary::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

double
Summary::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    double n = static_cast<double>(samples_.size());
    double m = sum_ / n;
    double var = sum_sq_ / n - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Summary::ensure_sorted() const
{
    if (!sorted_valid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

double
Summary::min() const
{
    if (samples_.empty())
        return 0.0;
    ensure_sorted();
    return sorted_.front();
}

double
Summary::max() const
{
    if (samples_.empty())
        return 0.0;
    ensure_sorted();
    return sorted_.back();
}

double
Summary::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    ensure_sorted();
    if (p <= 0.0)
        return sorted_.front();
    if (p >= 100.0)
        return sorted_.back();
    double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted_.size())
        return sorted_.back();
    return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

void
Summary::clear()
{
    samples_.clear();
    sorted_valid_ = false;
    sum_ = 0.0;
    sum_sq_ = 0.0;
}

void
Summary::merge(const Summary& other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    sorted_valid_ = false;
}

std::vector<double>
TimeSeries::window_means(Time window, Time until) const
{
    std::size_t n = window > 0
        ? static_cast<std::size_t>((until + window - 1) / window)
        : 0;
    std::vector<double> sums(n, 0.0);
    std::vector<std::uint64_t> counts(n, 0);
    for (const Point& p : points_) {
        if (p.t < 0 || p.t >= until)
            continue;
        std::size_t i = static_cast<std::size_t>(p.t / window);
        sums[i] += p.value;
        ++counts[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (counts[i] > 0)
            sums[i] /= static_cast<double>(counts[i]);
    }
    return sums;
}

void
RateMeter::add(Time t, double amount)
{
    if (t < 0)
        return;
    std::size_t i = static_cast<std::size_t>(t / kRateWindow);
    if (i >= per_window_.size())
        per_window_.resize(i + 1, 0.0);
    per_window_[i] += amount;
    total_ += amount;
}

std::vector<double>
RateMeter::rates(Time until) const
{
    std::size_t n =
        static_cast<std::size_t>((until + kRateWindow - 1) / kRateWindow);
    std::vector<double> out(n, 0.0);
    double wsec = to_seconds(kRateWindow);
    for (std::size_t i = 0; i < n && i < per_window_.size(); ++i)
        out[i] = per_window_[i] / wsec;
    return out;
}

Summary
RateMeter::rate_summary(Time until) const
{
    Summary s;
    for (double r : rates(until))
        s.add(r);
    return s;
}

}  // namespace hivemind::sim
