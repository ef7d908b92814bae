#pragma once

/**
 * @file
 * Cloud-edge network topology for a swarm deployment.
 *
 * Mirrors the paper's testbed (Sec. 2.1): edge devices reach the
 * cluster through two 867 Mbps 802.11ac routers; the 12 servers sit
 * behind 10 GbE NICs on a 40 Gbps ToR switch. Device i is associated
 * with router i mod R. Transfers are chained store-and-forward over
 * the flow-level links, and every message additionally pays RPC
 * processing at both endpoints (software stack, or FPGA offload on the
 * cloud side when acceleration is enabled, Sec. 4.5).
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/flow.hpp"
#include "net/link.hpp"
#include "net/rpc.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hivemind::net {

/** Static description of the deployment's network. */
struct TopologyConfig
{
    std::size_t devices = 16;
    std::size_t routers = 2;
    std::size_t servers = 12;
    /** Effective per-device radio rate (802.11ac client, ~600 Mbps). */
    double device_radio_bps = 600e6;
    /** Per-router shared medium capacity (LinkSys AC2200). */
    double router_bps = 867e6;
    double server_nic_bps = 10e9;
    double tor_bps = 40e9;
    /** One-way wireless latency (media access + air). */
    sim::Time wireless_prop = sim::from_millis(2.0);
    /** One-way wired latency per hop inside the cluster. */
    sim::Time lan_prop = sim::from_micros(20.0);
    /** Use the FPGA RPC offload on cloud servers (Sec. 4.5). */
    bool cloud_rpc_offload = false;
    /**
     * Multiply all shared-infrastructure capacities (routers, ToR) by
     * this factor; Fig. 17b scales links proportionally to swarm size.
     */
    double infra_scale = 1.0;
    /**
     * Wireless unreliability (Sec. 1: devices "are prone to
     * unreliable network connections"): probability that a wireless
     * transfer is corrupted and must be retransmitted after a
     * timeout. Applied per attempt, up to max_retransmits retries.
     */
    double wireless_loss = 0.0;
    sim::Time retransmit_timeout = sim::from_millis(50.0);
    int max_retransmits = 3;
};

/**
 * Delivery-time sentinel passed to a DeliveryCallback when a wireless
 * transfer was dropped: the retransmit budget ran out, either because
 * the radio is blacked out (wireless_loss >= 1: every attempt burns a
 * timeout without touching the air) or because probabilistic loss
 * corrupted every attempt including the last one.
 */
inline constexpr sim::Time kDropped = -1;

/** The full edge-cloud network with per-device accounting. */
class SwarmTopology
{
  public:
    /**
     * @param rng randomness source for the wireless-loss model; may
     *        be null when config.wireless_loss == 0.
     */
    SwarmTopology(sim::Simulator& simulator, const TopologyConfig& config,
                  sim::Rng* rng = nullptr);

    const TopologyConfig& config() const { return config_; }

    /**
     * Send @p bytes from device @p device to server @p server,
     * including RPC processing at both ends.
     */
    void send_uplink(std::size_t device, std::size_t server,
                     std::uint64_t bytes, DeliveryCallback done);

    /** Send @p bytes from a server down to a device. */
    void send_downlink(std::size_t server, std::size_t device,
                       std::uint64_t bytes, DeliveryCallback done);

    /**
     * Wired half of an uplink: router -> ToR -> server NIC plus the
     * receiving server's RPC processing. No radio hop, no wireless
     * loss model — the sharded scenario runtime serializes the air
     * segment on the device's owner shard (net::ShardLink) and hands
     * the frame to the cloud shard here.
     */
    void send_uplink_wired(std::size_t device, std::size_t server,
                           std::uint64_t bytes, DeliveryCallback done);

    /**
     * Wired half of a downlink: server RPC + NIC -> ToR -> router.
     * The radio hop back to the device is the caller's ShardLink.
     */
    void send_downlink_wired(std::size_t server, std::size_t device,
                             std::uint64_t bytes, DeliveryCallback done);

    /** Total bytes a device has sent + received (radio energy input). */
    std::uint64_t device_bytes(std::size_t device) const
    {
        return device_bytes_[device];
    }

    /** Aggregate over-the-air traffic meter (bandwidth figures). */
    const sim::RateMeter& air_meter() const { return air_meter_; }

    /**
     * Host CPU seconds the cloud spent on RPC processing (zero under
     * FPGA offload; Sec. 4.5 "frees up a lot of CPU resources").
     */
    double cloud_rpc_cpu_seconds() const;

    /** Wireless retransmissions performed so far. */
    std::uint64_t retransmissions() const { return retransmissions_; }

    /** Wireless frames dropped after exhausting retries in a blackout. */
    std::uint64_t frames_dropped() const { return frames_dropped_; }

    /** The pooled-flow allocator all send paths run on (diagnostics). */
    const FlowPool& flows() const { return flows_; }

  private:
    /**
     * Run a wireless transfer with the loss model: invoke @p attempt
     * (which performs one try and reports its delivery time); on a
     * simulated corruption, wait out the retransmit timeout and try
     * again, up to the configured retry budget.
     */
    void with_retransmits(std::function<void(DeliveryCallback)> attempt,
                          DeliveryCallback done, int tries_left);

    sim::Simulator* simulator_;
    TopologyConfig config_;
    sim::Rng* rng_ = nullptr;
    std::uint64_t retransmissions_ = 0;
    std::uint64_t frames_dropped_ = 0;
    std::vector<std::unique_ptr<Link>> device_up_;    // device -> router
    std::vector<std::unique_ptr<Link>> device_down_;  // router -> device
    std::vector<std::unique_ptr<Link>> router_up_;    // router -> tor
    std::vector<std::unique_ptr<Link>> router_down_;  // tor -> router
    std::unique_ptr<Link> tor_up_;
    std::unique_ptr<Link> tor_down_;
    std::vector<std::unique_ptr<Link>> nic_in_;       // tor -> server
    std::vector<std::unique_ptr<Link>> nic_out_;      // server -> tor
    std::vector<std::unique_ptr<RpcProcessor>> device_rpc_;
    std::vector<std::unique_ptr<RpcProcessor>> server_rpc_;
    std::vector<std::uint64_t> device_bytes_;
    sim::RateMeter air_meter_;
    /** Pooled flow records for every multi-hop transfer. */
    FlowPool flows_;
};

}  // namespace hivemind::net
