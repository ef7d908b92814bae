#pragma once

/**
 * @file
 * Platform configurations under evaluation.
 *
 * The paper compares: Centralized IaaS (statically provisioned cloud
 * of equal cost), Centralized FaaS (all compute in the serverless
 * cloud), Distributed Edge (all compute on-board, only final outputs
 * uplinked), and HiveMind. Fig. 13 additionally ablates HiveMind's
 * mechanisms; the feature flags here express every column of that
 * figure.
 */

#include <optional>
#include <string>

namespace hivemind::platform {

/** Coordination strategy. */
enum class PlatformKind
{
    CentralizedIaas,
    CentralizedFaas,
    DistributedEdge,
    HiveMind,
};

/** Human-readable kind name. */
const char* to_string(PlatformKind k);

/** A platform plus its hardware/software feature flags. */
struct PlatformOptions
{
    PlatformKind kind = PlatformKind::HiveMind;
    /** FPGA RPC offload on the cloud NICs (Sec. 4.5). */
    bool net_accel = false;
    /** FPGA remote-memory fabric for function data exchange (4.4). */
    bool remote_mem_accel = false;
    /** HiveMind scheduler (co-location, keep-alive, stragglers, 4.3). */
    bool smart_scheduler = false;
    /** Label for result tables. */
    std::string label;

    /** The four headline platforms. */
    static PlatformOptions centralized_iaas();
    static PlatformOptions centralized_faas();
    static PlatformOptions distributed_edge();
    static PlatformOptions hivemind();

    /** Fig. 13 ablation columns. */
    static PlatformOptions centralized_net_accel();
    static PlatformOptions centralized_net_remote_mem();
    static PlatformOptions distributed_net_accel();
    static PlatformOptions hivemind_no_accel();
};

/** Parse a platform preset name ("hivemind", "centralized_faas",
 *  "centralized_iaas", "distributed_edge"); throws
 *  std::invalid_argument on anything else. Inverse of
 *  platform_preset_name(). */
PlatformOptions platform_from_name(const std::string& name);

/** Stable preset name for profile serialization (by kind). */
const char* platform_preset_name(PlatformKind kind);

/**
 * The HIVEMIND_* environment overrides, all in one place.
 *
 * Every knob these variables touch is first a ScenarioConfig /
 * profile field; the env vars exist for A/B runs and CI sweeps that
 * cannot edit configs (see DESIGN.md "Configuration"). This namespace
 * is the only place in the repo that calls std::getenv — benches and
 * tests route through it, so a grep for getenv outside the options
 * layer should come back empty.
 */
namespace env {

/** HIVEMIND_SHARDS: an extra shard count for invariance sweeps. */
std::optional<int> shards();

/** HIVEMIND_MISSION_S: mission-window override, seconds, for the
 *  scenario-shards bench (>= 1 to apply). */
std::optional<long> mission_s();

/** HIVEMIND_SWEEP_THREADS: worker override for bench sweeps and the
 *  fleet driver (values < 1 clamp to 1). */
std::optional<unsigned> sweep_threads();

}  // namespace env

}  // namespace hivemind::platform
