#include "net/rpc.hpp"

#include <algorithm>
#include <utility>

namespace hivemind::net {

RpcConfig
RpcConfig::software_stack(int cores)
{
    RpcConfig c;
    c.latency = sim::from_micros(25.0);
    c.throughput_rps = 600'000.0;
    c.cores = cores;
    c.cpu_s_per_msg = 1.0 / c.throughput_rps;
    return c;
}

RpcConfig
RpcConfig::fpga_offload(int cores)
{
    RpcConfig c;
    c.latency = sim::from_micros(1.05);
    c.throughput_rps = 12'400'000.0;
    c.cores = cores;
    c.cpu_s_per_msg = 0.0;
    return c;
}

RpcProcessor::RpcProcessor(sim::Simulator& simulator, RpcConfig config)
    : simulator_(&simulator),
      config_(config),
      core_free_(static_cast<std::size_t>(config.cores > 0 ? config.cores : 1),
                 0)
{
}

sim::Time
RpcProcessor::process(sim::InlineFn done)
{
    sim::Time now = simulator_->now();
    // Pick the earliest-free core (deterministic tie-break by index).
    auto it = std::min_element(core_free_.begin(), core_free_.end());
    sim::Time start = std::max(*it, now);
    sim::Time service = sim::from_seconds(1.0 / config_.throughput_rps);
    *it = start + service;
    cpu_seconds_ += config_.cpu_s_per_msg;
    ++messages_;
    sim::Time completion = *it + config_.latency;
    if (done)
        simulator_->schedule_at(completion, std::move(done));
    return completion;
}

}  // namespace hivemind::net
