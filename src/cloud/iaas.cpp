#include "cloud/iaas.hpp"

#include <algorithm>
#include <utility>

namespace hivemind::cloud {

namespace {

/** Request dispatch overhead (load balancer hop). */
constexpr sim::Time kDispatch = sim::from_millis(0.8);
/**
 * Load-balancer throughput (requests/second). Like the OpenWhisk
 * controller, the reserved deployment's front end is a central
 * process that saturates at large swarm sizes.
 */
constexpr double kLbRps = 800.0;
/** Straggler slow-down upper bound (bounded pareto). */
constexpr double kStragglerMaxFactor = 4.0;

}  // namespace

IaasPool::IaasPool(sim::Simulator& simulator, sim::Rng& rng,
                   const IaasConfig& config)
    : simulator_(&simulator),
      rng_(rng.fork()),
      config_(config)
{
    free_workers_.reserve(static_cast<std::size_t>(config.workers));
    for (int w = config.workers - 1; w >= 0; --w)
        free_workers_.push_back(static_cast<std::size_t>(w));
}

void
IaasPool::submit(double work_core_ms,
                 std::function<void(const IaasTrace&)> done)
{
    Pending p;
    p.work_core_ms = work_core_ms;
    p.done = std::move(done);
    p.submit = simulator_->now();
    ++active_;
    // The load balancer is a single FIFO service stage.
    sim::Time service = sim::from_seconds(1.0 / kLbRps);
    sim::Time start = std::max(lb_free_, simulator_->now());
    lb_free_ = start + service;
    auto self = this;
    simulator_->schedule_at(lb_free_ + kDispatch,
                            [self, p = std::move(p)]() mutable {
                                self->dispatch(std::move(p));
                            });
}

void
IaasPool::dispatch(Pending p)
{
    if (!free_workers_.empty()) {
        std::size_t w = free_workers_.back();
        free_workers_.pop_back();
        run(std::move(p), w);
        return;
    }
    queue_.push_back(std::move(p));
}

void
IaasPool::run(Pending p, std::size_t worker)
{
    IaasTrace trace;
    trace.submit = p.submit;
    trace.exec_start = simulator_->now();
    double factor = rng_.lognormal_median(1.0, config_.interference_sigma);
    if (rng_.chance(config_.straggler_prob))
        factor *= rng_.bounded_pareto(1.5, kStragglerMaxFactor, 1.2);
    double exec_ms = p.work_core_ms * factor;
    auto self = this;
    simulator_->schedule_in(
        sim::from_millis(exec_ms),
        [self, worker, trace, done = std::move(p.done)]() mutable {
            self->free_workers_.push_back(worker);
            --self->active_;
            ++self->completed_;
            trace.done = self->simulator_->now();
            if (done)
                done(trace);
            if (!self->queue_.empty()) {
                Pending next = std::move(self->queue_.front());
                self->queue_.pop_front();
                self->dispatch(std::move(next));
            }
        });
}

}  // namespace hivemind::cloud
