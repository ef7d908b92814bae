#pragma once

/**
 * @file
 * Work/size constants of the scenario pipelines (from the task graphs
 * in Sec. 5.5), as the scenario engine runs them, and HiveMind's
 * hybrid split of a task between the drone and the cloud.
 */

#include <algorithm>
#include <cstdint>

#include "cloud/faas.hpp"
#include "platform/scenario_kind.hpp"

namespace hivemind::platform {

/**
 * Names of the scenario pipeline's two apps. CloudTier interns them
 * on construction, right after its runtime's unnamed app, so on every
 * tier they hold the ids PipelineSpec::rec_app and dedup_app carry.
 */
inline constexpr const char* kPipelineApps[] = {"scenarioRec",
                                                "scenarioDedup"};

/** Per-task stage work and payload sizes of one scenario pipeline. */
struct PipelineSpec
{
    double rec_work_ms = 220.0;        ///< Recognition stage.
    double dedup_work_ms = 0.0;        ///< Second stage (0 = none).
    /**
     * Sensor payload per recognition task: a one-second frame batch
     * (8 fps x 2 MB, Sec. 2.1). Centralized platforms ship all of it;
     * HiveMind's on-board pre-filter forwards hivemind_uplink_bytes().
     */
    std::uint64_t frame_bytes = 16u << 20;
    std::uint64_t inter_bytes = 128u << 10;
    std::uint64_t result_bytes = 16u << 10;
    int parallelism = 8;
    std::uint64_t memory_mb = 512;
    cloud::AppId rec_app{1};    ///< kPipelineApps[0] on a CloudTier.
    cloud::AppId dedup_app{2};  ///< kPipelineApps[1] on a CloudTier.
};

/** Pipeline constants for @p kind, with @p frame_bytes_override > 0
 *  replacing the sensor payload (Fig. 17a resolution sweeps). */
inline PipelineSpec
pipeline_for(ScenarioKind kind, std::uint64_t frame_bytes_override = 0)
{
    PipelineSpec spec;
    if (kind == ScenarioKind::MovingPeople) {
        spec.rec_work_ms = 350.0;
        spec.dedup_work_ms = 420.0;
    } else if (kind == ScenarioKind::TreasureHunt) {
        // Image-to-text on a full panel photo, then instruction
        // parsing as a dependent stage (multi-phase, Sec. 5.5).
        spec.rec_work_ms = 1500.0;
        spec.dedup_work_ms = 300.0;
        spec.parallelism = 12;
        spec.frame_bytes = 2u << 20;
        spec.result_bytes = 1u << 10;
    } else if (kind == ScenarioKind::RoverMaze) {
        spec.rec_work_ms = 700.0;
        spec.parallelism = 2;
        spec.frame_bytes = 64u << 10;
        spec.result_bytes = 1u << 10;
    }
    if (frame_bytes_override > 0)
        spec.frame_bytes = frame_bytes_override;
    return spec;
}

/*
 * HiveMind's hybrid split (DESIGN.md §8.1). The job runner's stage
 * plan and the analytic twin read both constants. The scenario engine
 * runs the same on-board share, then uplinks hivemind_uplink_bytes()
 * of the frame, on which the cloud runs the whole recognition stage.
 */

/** Fraction of a task's work the on-board pre-filter runs. */
inline constexpr double kHybridPrefilterShare = 0.10;
/** Fraction of a job task's sensor bytes uplinked after it. */
inline constexpr double kHybridUplinkFraction = 0.30;

/** On-board pre-filter work per frame. */
inline double
hivemind_prefilter_work_ms(const PipelineSpec& spec)
{
    return spec.rec_work_ms * kHybridPrefilterShare;
}

/** Bytes per frame left after the pre-filter: 4 MiB plus 2% of the
 *  raw payload, never more than the raw payload. */
inline double
hivemind_uplink_bytes(const PipelineSpec& spec)
{
    const double raw = static_cast<double>(spec.frame_bytes);
    return std::min(raw, 4.0 * 1024.0 * 1024.0 + 0.02 * raw);
}

}  // namespace hivemind::platform
