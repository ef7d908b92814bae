#include "cloud/sharing.hpp"

#include <utility>

namespace hivemind::cloud {

const char*
to_string(SharingProtocol p)
{
    switch (p) {
      case SharingProtocol::CouchDb:
        return "CouchDB";
      case SharingProtocol::DirectRpc:
        return "RPC";
      case SharingProtocol::InMemory:
        return "In-memory";
      case SharingProtocol::RemoteMemory:
        return "RemoteMem";
    }
    return "?";
}

DataSharingFabric::DataSharingFabric(sim::Simulator& simulator, sim::Rng& rng,
                                     DataStore& store,
                                     const SharingConfig& config)
    : simulator_(&simulator),
      rng_(rng.fork()),
      store_(&store),
      config_(config)
{
}

void
DataSharingFabric::share(SharingProtocol protocol, std::uint64_t bytes,
                         sim::InlineFn done)
{
    switch (protocol) {
      case SharingProtocol::CouchDb: {
        // Parent write, then child read, each a full store access.
        store_->access(bytes, [this, bytes,
                               done = std::move(done)]() mutable {
            store_->access(bytes, std::move(done));
        });
        return;
      }
      case SharingProtocol::DirectRpc: {
        sim::Time lat = config_.rpc_latency +
            sim::from_seconds(static_cast<double>(bytes) /
                              config_.rpc_bandwidth_Bps);
        // Mild jitter from the kernel stack.
        lat = sim::from_seconds(
            rng_.lognormal_median(sim::to_seconds(lat), 0.12));
        simulator_->schedule_in(lat, std::move(done));
        return;
      }
      case SharingProtocol::InMemory: {
        sim::Time lat = sim::from_seconds(static_cast<double>(bytes) /
                                          config_.memcpy_bandwidth_Bps);
        simulator_->schedule_in(lat, std::move(done));
        return;
      }
      case SharingProtocol::RemoteMemory: {
        sim::Time lat = config_.rdma_latency +
            sim::from_seconds(static_cast<double>(bytes) /
                              config_.rdma_bandwidth_Bps);
        simulator_->schedule_in(lat, std::move(done));
        return;
      }
    }
}

}  // namespace hivemind::cloud
