#include "platform/deployment.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "platform/pipeline_spec.hpp"

namespace hivemind::platform {

double
infra_scale(std::size_t devices, bool scale_infra)
{
    return scale_infra && devices > 16
        ? static_cast<double>(devices) / 16.0
        : 1.0;
}

int
hivemind_controllers(std::size_t devices)
{
    return std::max<int>(2, static_cast<int>(devices / 8));
}

CloudTier::CloudTier(sim::Simulator& simulator, sim::Rng& rng,
                     const DeploymentConfig& config,
                     const PlatformOptions& options, sim::Rng* radio_loss)
    : simulator_(&simulator), config_(config), options_(options)
{
    // --- Network ---
    net::TopologyConfig net;
    net.devices = config_.devices;
    net.cloud_rpc_offload = options_.net_accel;
    net.wireless_loss = config_.wireless_loss;
    net.infra_scale = infra_scale(config_.devices, config_.scale_infra);
    // The serverless cloud grows with offered load too; the controller
    // does NOT (that is the scalability bottleneck).
    config_.servers = static_cast<std::size_t>(
        static_cast<double>(config_.servers) * net.infra_scale);
    net.servers = config_.servers;
    network_ = std::make_unique<net::SwarmTopology>(simulator, net,
                                                    radio_loss);

    // --- Cloud ---
    cluster_ = std::make_unique<cloud::Cluster>(
        config_.servers, config_.cores_per_server, kServerMemoryMb);
    store_ = std::make_unique<cloud::DataStore>(simulator, rng,
                                                cloud::DataStoreConfig{});

    cloud::FaasConfig faas = config_.faas;
    if (options_.remote_mem_accel)
        faas.sharing = cloud::SharingProtocol::RemoteMemory;
    if (options_.smart_scheduler) {
        // HiveMind deploys multiple shared-state schedulers when one
        // becomes the bottleneck (Sec. 4.3).
        faas.controllers = hivemind_controllers(config_.devices);
        // Function concurrency is an internal limit, not a public
        // cloud quota, under HiveMind's full-control deployment.
        faas.max_concurrency = 100000;
    }
    faas_ = std::make_unique<cloud::FaasRuntime>(simulator, rng, *cluster_,
                                                 *store_, faas);
    [[maybe_unused]] const cloud::AppId rec = faas_->intern(kPipelineApps[0]);
    [[maybe_unused]] const cloud::AppId dedup =
        faas_->intern(kPipelineApps[1]);
    assert(rec == PipelineSpec{}.rec_app && dedup == PipelineSpec{}.dedup_app);
    iaas_ = std::make_unique<cloud::IaasPool>(simulator, rng, config_.iaas);

    if (options_.smart_scheduler) {
        scheduler_ = std::make_unique<core::HiveMindScheduler>(
            simulator, rng, *faas_, config_.scheduler);
        scheduler_->install();
    }
}

void
CloudTier::invoke(const cloud::InvokeRequest& request, int parallelism,
                  std::function<void(const CloudResult&)> done)
{
    if (options_.kind == PlatformKind::CentralizedIaas) {
        iaas_->submit(request.work_core_ms,
                      [done = std::move(done)](const cloud::IaasTrace& t) {
                          CloudResult r;
                          r.mgmt_s = t.queue_s();
                          r.exec_s = t.total_s() - t.queue_s();
                          r.done = t.done;
                          if (done)
                              done(r);
                      });
        return;
    }

    // 32 bytes: the join record holds it without a heap cell.
    auto to_result = [done = std::move(done)](
                         const cloud::InvocationTrace& t) {
        CloudResult r;
        r.mgmt_s = t.mgmt_s() + t.instantiation_s();
        r.data_s = t.data_s();
        r.exec_s = t.exec_s();
        r.done = t.done;
        r.server = t.server;
        r.lost = t.lost;
        if (done)
            done(r);
    };

    // Each fan-out part goes through the scheduler when installed, so
    // every part gets its own straggler watchdog; one way submits the
    // request whole.
    faas_->invoke_fan_out(
        request, parallelism,
        [this](const cloud::InvokeRequest& part, cloud::InvokeCallback cb) {
            if (scheduler_)
                scheduler_->invoke(part, std::move(cb));
            else
                faas_->invoke(part, std::move(cb));
        },
        std::move(to_result));
}

Deployment::Deployment(const DeploymentConfig& config,
                       const PlatformOptions& options)
    : rng_(config.seed), cloud_(simulator_, rng_, config, options, &rng_)
{
    // --- Edge devices ---
    const std::size_t n = cloud_.config().devices;
    devices_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        devices_.push_back(std::make_unique<edge::Device>(
            simulator_, rng_, i, cloud_.config().device_spec));
    }
    radio_settled_.assign(n, 0);
}

void
Deployment::settle_radio_energy()
{
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        std::uint64_t total = cloud_.network().device_bytes(i);
        std::uint64_t delta = total - radio_settled_[i];
        radio_settled_[i] = total;
        devices_[i]->account_radio(delta);
    }
}

}  // namespace hivemind::platform
