#pragma once

/**
 * @file
 * Statically provisioned (IaaS/PaaS) deployment model.
 *
 * The paper's "fixed" and "Centralized IaaS" baselines run tasks on a
 * reserved pool of long-running containers: no instantiation cost and
 * low interference, but a hard concurrency ceiling — when offered
 * load exceeds the pool, tasks queue and latency balloons (Figs. 5a,
 * 5b). Spinning up additional instances takes "several seconds"
 * (Sec. 3.2), so within an experiment the pool size is fixed.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hivemind::cloud {

/** Reserved-pool settings; the rest are constants (iaas.cpp). */
struct IaasConfig
{
    /** Long-running worker containers (each pinned to a core). */
    int workers = 40;
    /** Service-time jitter (reserved resources are quieter). */
    double interference_sigma = 0.08;
    /** Probability of an extreme straggler. */
    double straggler_prob = 0.004;
};

/** Completion record for a reserved-pool task. */
struct IaasTrace
{
    sim::Time submit = 0;
    sim::Time exec_start = 0;
    sim::Time done = 0;

    double queue_s() const { return sim::to_seconds(exec_start - submit); }
    double total_s() const { return sim::to_seconds(done - submit); }
};

/** FIFO task pool over a fixed set of reserved workers. */
class IaasPool
{
  public:
    IaasPool(sim::Simulator& simulator, sim::Rng& rng,
             const IaasConfig& config);

    /** Submit a task of @p work_core_ms; @p done fires at completion. */
    void submit(double work_core_ms,
                std::function<void(const IaasTrace&)> done);

    /** Currently running + queued tasks. */
    int active() const { return active_; }

    /** Tasks completed. */
    std::uint64_t completed() const { return completed_; }

  private:
    struct Pending
    {
        double work_core_ms;
        std::function<void(const IaasTrace&)> done;
        sim::Time submit;
    };

    void dispatch(Pending p);
    void run(Pending p, std::size_t worker);

    sim::Simulator* simulator_;
    sim::Rng rng_;
    IaasConfig config_;
    std::vector<std::size_t> free_workers_;  // Stack of idle workers.
    sim::Time lb_free_ = 0;  // Load-balancer next-free time.
    std::deque<Pending> queue_;
    int active_ = 0;
    std::uint64_t completed_ = 0;
};

}  // namespace hivemind::cloud
