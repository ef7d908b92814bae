#pragma once

/**
 * @file
 * Statistics collection for experiments.
 *
 * Summary accumulates scalar samples and reports moments and exact
 * percentiles (it keeps all samples; experiment scales here are small
 * enough that exactness beats sketching). TimeSeries records
 * (time, value) pairs, and RateMeter converts discrete byte/event
 * arrivals into per-interval rates for bandwidth figures.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hivemind::sim {

/** Accumulator of scalar samples with exact percentile queries. */
class Summary
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples recorded. */
    std::size_t count() const { return samples_.size(); }

    /** Whether no samples were recorded. */
    bool empty() const { return samples_.empty(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Population standard deviation; 0 when empty. */
    double stddev() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /**
     * Exact percentile via linear interpolation between order
     * statistics. @p p in [0, 100].
     */
    double percentile(double p) const;

    /** Median (p50). */
    double median() const { return percentile(50.0); }

    /** 99th percentile, the paper's tail-latency metric. */
    double p99() const { return percentile(99.0); }

    /** Merge another summary's samples into this one. */
    void merge(const Summary& other);

    /** Drop every sample, keeping the buffers for reuse. */
    void clear();

    /** All samples, unsorted, in insertion order. */
    const std::vector<double>& samples() const { return samples_; }

  private:
    void ensure_sorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = false;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
};

/** Time-stamped scalar series (e.g., active tasks over time). */
class TimeSeries
{
  public:
    struct Point
    {
        Time t;
        double value;
    };

    /** Append a point; times should be non-decreasing. */
    void add(Time t, double value) { points_.push_back({t, value}); }

    /** All recorded points. */
    const std::vector<Point>& points() const { return points_; }

    /** Whether the series is empty. */
    bool empty() const { return points_.empty(); }

    /**
     * Resample as the mean value in consecutive windows of @p window
     * duration starting at t=0 (empty windows report 0).
     */
    std::vector<double> window_means(Time window, Time until) const;

  private:
    std::vector<Point> points_;
};

/**
 * Converts discrete arrivals (bytes, requests) into per-second rates.
 * Used for the bandwidth-utilization figures (3b, 14b, 17).
 */
class RateMeter
{
  public:
    /** Record @p amount units arriving at time @p t. */
    void add(Time t, double amount);

    /**
     * Per-window rates in units/second for windows [0, until).
     * Windows with no arrivals report 0.
     */
    std::vector<double> rates(Time until) const;

    /** Summary over the per-window rates (mean/median/p99 bandwidth). */
    Summary rate_summary(Time until) const;

    /** Total amount recorded. */
    double total() const { return total_; }

  private:
    std::vector<double> per_window_;
    double total_ = 0.0;
};

}  // namespace hivemind::sim
