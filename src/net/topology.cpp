#include "net/topology.hpp"

#include <utility>

namespace hivemind::net {

SwarmTopology::SwarmTopology(sim::Simulator& simulator,
                             const TopologyConfig& config, sim::Rng* rng)
    : simulator_(&simulator),
      config_(config),
      rng_(rng),
      device_bytes_(config.devices, 0),
      air_meter_(sim::kSecond),
      flows_(simulator)
{
    double scale = config.infra_scale;
    for (std::size_t i = 0; i < config.devices; ++i) {
        device_up_.push_back(std::make_unique<Link>(
            simulator, config.device_radio_bps, config.wireless_prop));
        device_down_.push_back(std::make_unique<Link>(
            simulator, config.device_radio_bps, config.wireless_prop));
        device_rpc_.push_back(std::make_unique<RpcProcessor>(
            simulator, RpcConfig::software_stack(1)));
    }
    for (std::size_t r = 0; r < config.routers; ++r) {
        router_up_.push_back(std::make_unique<Link>(
            simulator, config.router_bps * scale, config.lan_prop));
        router_down_.push_back(std::make_unique<Link>(
            simulator, config.router_bps * scale, config.lan_prop));
    }
    tor_up_ = std::make_unique<Link>(simulator, config.tor_bps * scale,
                                     config.lan_prop);
    tor_down_ = std::make_unique<Link>(simulator, config.tor_bps * scale,
                                       config.lan_prop);
    for (std::size_t s = 0; s < config.servers; ++s) {
        nic_in_.push_back(std::make_unique<Link>(
            simulator, config.server_nic_bps, config.lan_prop));
        nic_out_.push_back(std::make_unique<Link>(
            simulator, config.server_nic_bps, config.lan_prop));
        server_rpc_.push_back(std::make_unique<RpcProcessor>(
            simulator,
            config.cloud_rpc_offload ? RpcConfig::fpga_offload(2)
                                     : RpcConfig::software_stack(2)));
    }
}

void
SwarmTopology::with_retransmits(std::function<void(DeliveryCallback)> attempt,
                                DeliveryCallback done, int tries_left)
{
    auto self = this;
    if (config_.wireless_loss >= 1.0) {
        // Radio blackout: nothing reaches the air. Each retry only
        // burns a retransmit timeout; when the budget runs out the
        // frame is dropped and the caller is told via kDropped.
        if (tries_left <= 0) {
            ++frames_dropped_;
            if (done)
                done(kDropped);
            return;
        }
        ++retransmissions_;
        simulator_->schedule_in(
            config_.retransmit_timeout,
            [self, attempt = std::move(attempt), done = std::move(done),
             tries_left]() mutable {
                self->with_retransmits(std::move(attempt), std::move(done),
                                       tries_left - 1);
            });
        return;
    }
    attempt([self, attempt, done = std::move(done),
             tries_left](sim::Time t) mutable {
        const double loss = self->config_.wireless_loss;
        if (self->rng_ != nullptr && loss > 0.0 && loss < 1.0 &&
            self->rng_->chance(loss)) {
            // The final attempt rolls the loss like every other one;
            // with the budget exhausted the frame is dropped, not
            // silently delivered.
            if (tries_left <= 0) {
                ++self->frames_dropped_;
                if (done)
                    done(kDropped);
                return;
            }
            ++self->retransmissions_;
            self->simulator_->schedule_in(
                self->config_.retransmit_timeout,
                [self, attempt = std::move(attempt),
                 done = std::move(done), tries_left]() mutable {
                    self->with_retransmits(std::move(attempt),
                                           std::move(done), tries_left - 1);
                });
            return;
        }
        if (done)
            done(t);
    });
}

void
SwarmTopology::send_uplink(std::size_t device, std::size_t server,
                           std::uint64_t bytes, DeliveryCallback done)
{
    std::size_t r = device % config_.routers;
    device_bytes_[device] += bytes;
    // Sender-side RPC processing, then the link chain, then
    // receiver-side RPC processing. The air meter records *delivered*
    // bytes at arrival time, so reported bandwidth is utilization and
    // never exceeds the physical capacity. Wireless corruption causes
    // timed-out retransmissions of the whole transfer.
    auto self = this;
    auto attempt = [self, device, server, r,
                    bytes](DeliveryCallback finished) {
        self->flows_.launch(self->device_rpc_[device].get(),
                            {self->device_up_[device].get(),
                             self->router_up_[r].get(),
                             self->tor_up_.get(),
                             self->nic_in_[server].get()},
                            bytes, &self->air_meter_,
                            self->server_rpc_[server].get(),
                            std::move(finished));
    };
    with_retransmits(std::move(attempt), std::move(done),
                     config_.max_retransmits);
}

void
SwarmTopology::send_downlink(std::size_t server, std::size_t device,
                             std::uint64_t bytes, DeliveryCallback done)
{
    std::size_t r = device % config_.routers;
    device_bytes_[device] += bytes;
    auto self = this;
    auto attempt = [self, device, server, r,
                    bytes](DeliveryCallback finished) {
        self->flows_.launch(self->server_rpc_[server].get(),
                            {self->nic_out_[server].get(),
                             self->tor_down_.get(),
                             self->router_down_[r].get(),
                             self->device_down_[device].get()},
                            bytes, &self->air_meter_,
                            self->device_rpc_[device].get(),
                            std::move(finished));
    };
    with_retransmits(std::move(attempt), std::move(done),
                     config_.max_retransmits);
}

void
SwarmTopology::send_uplink_wired(std::size_t device, std::size_t server,
                                 std::uint64_t bytes, DeliveryCallback done)
{
    std::size_t r = device % config_.routers;
    flows_.launch(nullptr,
                  {router_up_[r].get(), tor_up_.get(),
                   nic_in_[server].get()},
                  bytes, nullptr, server_rpc_[server].get(),
                  std::move(done));
}

void
SwarmTopology::send_downlink_wired(std::size_t server, std::size_t device,
                                   std::uint64_t bytes,
                                   DeliveryCallback done)
{
    std::size_t r = device % config_.routers;
    flows_.launch(server_rpc_[server].get(),
                  {nic_out_[server].get(), tor_down_.get(),
                   router_down_[r].get()},
                  bytes, nullptr, nullptr, std::move(done));
}

double
SwarmTopology::cloud_rpc_cpu_seconds() const
{
    double total = 0.0;
    for (const auto& p : server_rpc_)
        total += p->cpu_seconds_used();
    return total;
}

}  // namespace hivemind::net
