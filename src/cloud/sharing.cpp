#include "cloud/sharing.hpp"

#include <utility>

namespace hivemind::cloud {

namespace {

// Latency/throughput constants of the sharing mechanisms.

/** Software RPC: per-message stack latency, both ends combined. */
constexpr sim::Time kRpcLatency = sim::from_micros(60.0);
/** Software RPC payload bandwidth (TCP on 10 GbE, one stream). */
constexpr double kRpcBandwidthBps = 1.0e9;
/** In-memory hand-off bandwidth (memcpy). */
constexpr double kMemcpyBandwidthBps = 8.0e9;
/** FPGA remote-memory access base latency (RoCE-style over UPI). */
constexpr sim::Time kRdmaLatency = sim::from_micros(2.4);
/** FPGA remote-memory streaming bandwidth (UPI-attached). */
constexpr double kRdmaBandwidthBps = 11.0e9;

}  // namespace

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
                                     DataStore& store)
    : simulator_(&simulator), rng_(rng.fork()), store_(&store)
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
        sim::Time lat = kRpcLatency +
            sim::from_seconds(static_cast<double>(bytes) /
                              kRpcBandwidthBps);
        // Mild jitter from the kernel stack.
        lat = sim::from_seconds(
            rng_.lognormal_median(sim::to_seconds(lat), 0.12));
        simulator_->schedule_in(lat, std::move(done));
        return;
      }
      case SharingProtocol::InMemory: {
        sim::Time lat = sim::from_seconds(static_cast<double>(bytes) /
                                          kMemcpyBandwidthBps);
        simulator_->schedule_in(lat, std::move(done));
        return;
      }
      case SharingProtocol::RemoteMemory: {
        sim::Time lat = kRdmaLatency +
            sim::from_seconds(static_cast<double>(bytes) /
                              kRdmaBandwidthBps);
        simulator_->schedule_in(lat, std::move(done));
        return;
      }
    }
}

}  // namespace hivemind::cloud
