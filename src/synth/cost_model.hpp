#pragma once

/**
 * @file
 * Analytic cost model for placement exploration (Sec. 4.2).
 *
 * HiveMind profiles each meaningful execution model on the target
 * swarm; as profiling every candidate end-to-end is expensive, an
 * analytic estimate prunes the space first (and doubles as the unit
 * under test for the explorer). The model computes, per task-graph
 * activation: the critical-path latency through the DAG, the energy
 * drawn from the device battery, the cloud core-seconds consumed, and
 * the bytes crossing the wireless boundary. The device is the drone
 * preset (edge::DeviceSpec::drone()): its CPU speed, compute power
 * and radio energy.
 */

#include <cstdint>

#include "dsl/graph.hpp"
#include "synth/placement.hpp"

namespace hivemind::synth {

/** Analytic estimate for one placement. */
struct PlacementEstimate
{
    /** Critical-path latency of one graph activation, seconds. */
    double latency_s = 0.0;
    /** Device energy per activation, joules. */
    double edge_energy_j = 0.0;
    /** Cloud cost per activation (core-seconds x price). */
    double cloud_cost = 0.0;
    /** Bytes crossing the wireless boundary per activation. */
    std::uint64_t crossing_bytes = 0;
};

/** Compute the analytic estimate of @p placement for @p graph. */
PlacementEstimate estimate_placement(const dsl::TaskGraph& graph,
                                     const PlacementAssignment& placement);

}  // namespace hivemind::synth
