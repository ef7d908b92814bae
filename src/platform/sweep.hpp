#pragma once

/**
 * @file
 * The one worker pool: independent runs fanned out over threads.
 *
 * Figure sweeps (bench/) and the fleet driver (platform/fleet.hpp)
 * both run many independent simulations and want the results in input
 * order. run_sweep() is the pool they share, and sweep_workers() is
 * the one rule for how many workers it starts.
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <vector>

#include "platform/options.hpp"

namespace hivemind::platform {

/** Default pool size: HIVEMIND_SWEEP_THREADS, else the hardware
 *  concurrency (min 1). */
inline unsigned
sweep_threads()
{
    if (auto n = env::sweep_threads())
        return *n;
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Workers run_sweep() uses for @p points points: @p requested, or
 *  sweep_threads() when it is 0; never more than the points, never
 *  fewer than 1. */
inline unsigned
sweep_workers(std::size_t points, unsigned requested = 0)
{
    const unsigned n = requested > 0 ? requested : sweep_threads();
    return static_cast<unsigned>(
        std::clamp<std::size_t>(points, 1, n));
}

/**
 * Run @p fn over every point of a sweep, in parallel, returning the
 * results in point order.
 *
 * Each point is an independent simulation (its own Simulator, its own
 * Rng seeded from the point itself), so points parcel out to a pool
 * of std::jthread workers via an atomic cursor; worker count never
 * affects results, only wall-clock. Output slot i is written only by
 * the worker that claimed point i, and the pool joins before the
 * results are returned, so no further synchronization is needed. With
 * one worker the points run on the calling thread. @p n_threads
 * follows sweep_workers() (0 = HIVEMIND_SWEEP_THREADS, useful to force
 * a serial reference run, or the hardware concurrency).
 *
 * @p fn must derive all randomness from the point it receives —
 * never from shared state — or determinism is lost.
 */
template <typename Point, typename Fn>
auto
run_sweep(const std::vector<Point>& points, Fn fn, unsigned n_threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, const Point&>>
{
    using Result = std::invoke_result_t<Fn&, const Point&>;
    std::vector<Result> results(points.size());
    const unsigned workers = sweep_workers(points.size(), n_threads);
    if (workers == 1) {
        for (std::size_t i = 0; i < points.size(); ++i)
            results[i] = fn(points[i]);
        return results;
    }
    std::atomic<std::size_t> next{0};
    {
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t) {
            pool.emplace_back([&]() {
                while (true) {
                    std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= points.size())
                        return;
                    results[i] = fn(points[i]);
                }
            });
        }
    }  // jthread joins here.
    return results;
}

}  // namespace hivemind::platform
