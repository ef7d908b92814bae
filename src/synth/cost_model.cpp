#include "synth/cost_model.hpp"

#include <algorithm>
#include <map>

#include "edge/device.hpp"

namespace hivemind::synth {

namespace {

/** Effective device uplink bandwidth, bytes/second. */
constexpr double kUplinkBps = 20e6;
/** One-way wireless latency, seconds. */
constexpr double kWirelessLatencyS = 0.004;
/** Serverless management latency per cloud task, seconds. */
constexpr double kFaasMgmtS = 0.006;
/** Amortized instantiation latency per cloud task, seconds. */
constexpr double kFaasInstantiationS = 0.080;
/** Cloud-to-cloud data hand-off latency per edge, seconds. */
constexpr double kCloudSharingS = 0.012;
/** Cloud sharing bandwidth, bytes/second (CouchDB). */
constexpr double kCloudSharingBps = 250e6;
/** Cloud price, cost units per core-second. */
constexpr double kCloudCostPerCoreS = 1.0;
/** Max useful intra-task fan-out in the cloud. */
constexpr int kMaxParallelism = 16;

}  // namespace

PlacementEstimate
estimate_placement(const dsl::TaskGraph& graph,
                   const PlacementAssignment& placement)
{
    const edge::DeviceSpec drone = edge::DeviceSpec::drone();
    PlacementEstimate est;
    auto topo = graph.topo_order();
    if (!topo)
        return est;

    // Longest-path DP: finish[t] = max over parents of
    //   finish[parent] + edge_cost(parent, t) + node_cost(t).
    std::map<std::string, double> finish;

    for (const std::string& name : *topo) {
        const dsl::TaskDef& t = graph.task(name);
        Location loc = placement.at(name);

        // Node latency.
        double node_s;
        if (loc == Location::Edge) {
            node_s = t.work_core_ms / 1000.0 / drone.cpu_speed_factor;
            est.edge_energy_j += node_s * drone.power.compute_w;
        } else {
            int ways = std::min(t.parallelism, kMaxParallelism);
            node_s = kFaasMgmtS + kFaasInstantiationS +
                t.work_core_ms / 1000.0 / static_cast<double>(ways);
            est.cloud_cost += t.work_core_ms / 1000.0 * kCloudCostPerCoreS;
        }

        double start = 0.0;
        for (const std::string& p : t.parents) {
            auto pit = finish.find(p);
            if (pit == finish.end())
                continue;
            const dsl::TaskDef& pt = graph.task(p);
            Location ploc = placement.at(p);
            double edge_s = 0.0;
            std::uint64_t bytes = pt.output_bytes;
            if (ploc != loc) {
                // Wireless boundary crossing.
                edge_s = kWirelessLatencyS +
                    static_cast<double>(bytes) / kUplinkBps;
                est.crossing_bytes += bytes;
                est.edge_energy_j += drone.power.radio_j_per_byte *
                    static_cast<double>(bytes);
            } else if (loc == Location::Cloud) {
                edge_s = kCloudSharingS +
                    static_cast<double>(bytes) / kCloudSharingBps;
            }
            start = std::max(start, pit->second + edge_s);
        }
        finish[name] = start + node_s;
        est.latency_s = std::max(est.latency_s, finish[name]);
    }
    return est;
}

}  // namespace hivemind::synth
