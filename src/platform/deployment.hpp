#pragma once

/**
 * @file
 * Deployment: one fully wired swarm + cloud instance.
 *
 * CloudTier is the one builder of the serverless cloud — network
 * topology, cluster, data store, FaaS runtime, IaaS pool and (for
 * HiveMind) the scheduler — and applies the PlatformOptions feature
 * flags: FPGA RPC offload on the cloud NICs, the remote-memory
 * data-sharing fabric, and the HiveMind scheduler with its wide
 * keep-alive window and co-location policy. Its invoke() routes a
 * task to whichever cloud backend the platform uses and normalizes
 * the resulting stage breakdown.
 *
 * A Deployment is that cloud tier on its own simulator, plus the edge
 * devices: the whole stack for one single-kernel experiment run. The
 * sharded scenario engine holds a bare CloudTier on its cloud shard.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cloud/datastore.hpp"
#include "cloud/faas.hpp"
#include "cloud/iaas.hpp"
#include "cloud/server.hpp"
#include "core/scheduler.hpp"
#include "edge/device.hpp"
#include "net/topology.hpp"
#include "platform/options.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hivemind::platform {

/** Memory per server (the testbed's 192 GB hosts, Sec. 2.1). */
inline constexpr std::uint64_t kServerMemoryMb = 192ull * 1024ull;

/**
 * Sizing and tuning of one deployment. The network is
 * net::TopologyConfig's testbed defaults sized by devices, servers and
 * scale_infra; the data store is cloud::DataStoreConfig's defaults.
 */
struct DeploymentConfig
{
    std::size_t devices = 16;
    std::size_t servers = 12;
    int cores_per_server = 40;
    std::uint64_t seed = 42;
    edge::DeviceSpec device_spec = edge::DeviceSpec::drone();
    /**
     * Per-attempt wireless corruption probability (Sec. 1: devices
     * "are prone to unreliable network connections"); see
     * net::TopologyConfig::wireless_loss.
     */
    double wireless_loss = 0.0;
    cloud::FaasConfig faas;
    cloud::IaasConfig iaas;
    core::SchedulerConfig scheduler;
    /**
     * Scale routers/ToR/servers proportionally with the swarm (the
     * paper's simulator experiments "scale up the network links
     * proportionately", Sec. 5.6). Reference size is 16 devices.
     */
    bool scale_infra = false;
};

/**
 * How much the shared infrastructure (router and ToR capacity, server
 * count) grows for a swarm of @p devices: devices / 16 once
 * @p scale_infra is set and the swarm outgrows the 16-drone testbed
 * (Sec. 5.6), 1 otherwise.
 */
double infra_scale(std::size_t devices, bool scale_infra);

/**
 * Controller replicas the HiveMind scheduler deploys for a swarm of
 * @p devices: one per 8 devices and never fewer than 2, so fan-out
 * never saturates the control plane (Sec. 4.3).
 */
int hivemind_controllers(std::size_t devices);

/** Normalized result of one cloud task (FaaS or IaaS). */
struct CloudResult
{
    double mgmt_s = 0.0;   ///< Scheduling + instantiation (+ queueing).
    double data_s = 0.0;   ///< Inter-function data exchange.
    double exec_s = 0.0;   ///< Pure execution.
    sim::Time done = 0;    ///< Completion time.
    std::size_t server = cloud::kNoServer;
    /** A part was lost under FaultRecovery::None: no result exists. */
    bool lost = false;
};

/**
 * The serverless cloud tier of one deployment, built on a kernel and
 * RNG the caller owns (and must keep alive). Construction order —
 * topology, cluster, store, FaaS, IaaS, scheduler — fixes the RNG
 * draw order, so a given kernel + seed always wires the same cloud.
 */
class CloudTier
{
  public:
    /**
     * @param radio_loss RNG the topology's wireless hops draw loss
     *        from; nullptr when the caller simulates the radio segment
     *        itself and the topology only carries the wired legs.
     */
    CloudTier(sim::Simulator& simulator, sim::Rng& rng,
              const DeploymentConfig& config, const PlatformOptions& options,
              sim::Rng* radio_loss);

    sim::Simulator& simulator() { return *simulator_; }
    net::SwarmTopology& network() { return *network_; }
    const net::SwarmTopology& network() const { return *network_; }
    cloud::Cluster& cluster() { return *cluster_; }
    cloud::DataStore& store() { return *store_; }
    cloud::FaasRuntime& faas() { return *faas_; }
    const cloud::FaasRuntime& faas() const { return *faas_; }
    cloud::IaasPool& iaas() { return *iaas_; }
    /** Non-null when the HiveMind scheduler is installed. */
    core::HiveMindScheduler* scheduler() { return scheduler_.get(); }
    const PlatformOptions& options() const { return options_; }
    /** The sizing actually built (servers grown by scale_infra). */
    const DeploymentConfig& config() const { return config_; }

    /**
     * Run one task on the platform's cloud backend (FaaS via the
     * HiveMind scheduler when installed, plain FaaS otherwise, or the
     * reserved IaaS pool for CentralizedIaas), with @p parallelism
     * intra-task fan-out where the backend supports it.
     */
    void invoke(const cloud::InvokeRequest& request, int parallelism,
                std::function<void(const CloudResult&)> done);

  private:
    sim::Simulator* simulator_;
    DeploymentConfig config_;
    PlatformOptions options_;
    std::unique_ptr<net::SwarmTopology> network_;
    std::unique_ptr<cloud::Cluster> cluster_;
    std::unique_ptr<cloud::DataStore> store_;
    std::unique_ptr<cloud::FaasRuntime> faas_;
    std::unique_ptr<cloud::IaasPool> iaas_;
    std::unique_ptr<core::HiveMindScheduler> scheduler_;
};

/** One wired-up experiment instance: a cloud tier plus the swarm. */
class Deployment
{
  public:
    Deployment(const DeploymentConfig& config,
               const PlatformOptions& options);

    sim::Simulator& simulator() { return simulator_; }
    sim::Rng& rng() { return rng_; }
    net::SwarmTopology& network() { return cloud_.network(); }
    cloud::Cluster& cluster() { return cloud_.cluster(); }
    cloud::DataStore& store() { return cloud_.store(); }
    cloud::FaasRuntime& faas() { return cloud_.faas(); }
    cloud::IaasPool& iaas() { return cloud_.iaas(); }
    /** Non-null when the HiveMind scheduler is installed. */
    core::HiveMindScheduler* scheduler() { return cloud_.scheduler(); }
    edge::Device& device(std::size_t i) { return *devices_[i]; }
    std::size_t device_count() const { return devices_.size(); }
    const PlatformOptions& options() const { return cloud_.options(); }
    const DeploymentConfig& config() const { return cloud_.config(); }

    /** CloudTier::invoke on this deployment's cloud. */
    void cloud_invoke(const cloud::InvokeRequest& request, int parallelism,
                      std::function<void(const CloudResult&)> done)
    {
        cloud_.invoke(request, parallelism, std::move(done));
    }

    /** Charge each device's radio energy from the topology counters. */
    void settle_radio_energy();

  private:
    sim::Simulator simulator_;
    sim::Rng rng_;
    CloudTier cloud_;
    std::vector<std::unique_ptr<edge::Device>> devices_;
    std::vector<std::uint64_t> radio_settled_;
};

}  // namespace hivemind::platform
