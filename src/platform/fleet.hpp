#pragma once

/**
 * @file
 * Fleet service mode: many independent swarm runs on one host.
 *
 * The paper's evaluation (and everything in bench/) runs one swarm at
 * a time. A serverless edge operator hosts *fleets*: many tenants,
 * each with their own scenario, deployment sizing, fault plan and
 * seed range, multiplexed onto one simulation host. This module is
 * that service mode:
 *
 *  - FleetProfile / FleetTenant: the declarative JSON description —
 *    N tenants, each a full scenario profile (platform/profile.hpp)
 *    plus deployment sizing, platform preset, replica count and seed
 *    base. Versioned, strict (unknown keys throw), exact round-trip.
 *  - Fleet: the concurrent driver. Flattens tenants × replicas into
 *    a job list, runs each job through platform::run() on the one
 *    worker pool (platform/sweep.hpp), and returns every record in
 *    deterministic (tenant, replica) order. Once the pool has joined
 *    it writes one JSONL line per record, in that order, to the
 *    optional metrics stream — records of swarms that died abnormally
 *    included. Every reader of the stream reads it after run()
 *    returns, so the fleet keeps no writer thread, queue or lock of
 *    its own.
 *
 * Determinism contract: each swarm run is an independent
 * deterministic simulation with its own seed (seed0 + replica), so
 * every per-swarm checksum is byte-identical to a solo run of the
 * same tenant config at that seed, at ANY --workers value, and so is
 * the JSONL stream once its wall_s fields are masked. The fleet only
 * adds scheduling, never sharing — tenants touch no common mutable
 * state. tests/fleet_test.cpp and bench/fleet_capacity.cpp both gate
 * on this.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "platform/profile.hpp"
#include "platform/scenario.hpp"

namespace hivemind::platform {

/** One tenant: a scenario profile times `replicas` seeds. */
struct FleetTenant
{
    /** Tenant label (JSONL key; need not be unique, but should be). */
    std::string name = "tenant";
    /** Independent runs of this config, seeds seed0 .. seed0+n-1. */
    int replicas = 1;
    /** Seed of replica 0. */
    std::uint64_t seed0 = 1;
    /** Platform preset name (see platform_from_name()). */
    std::string platform = "hivemind";
    /** Deployment sizing (the rest of DeploymentConfig stays at its
     *  defaults — profiles describe experiments, not hardware). */
    std::size_t devices = 16;
    std::size_t servers = 12;
    int cores_per_server = 40;
    bool scale_infra = false;
    /** The full scenario profile. */
    ScenarioConfig scenario;

    bool operator==(const FleetTenant&) const = default;
};

/** A named set of tenants — the unit the fleet driver executes. */
struct FleetProfile
{
    std::string name = "fleet";
    std::vector<FleetTenant> tenants;

    /** Total swarm runs (sum of replicas). */
    std::size_t swarms() const;

    bool operator==(const FleetProfile&) const = default;
};

/** Serialize / parse fleet profiles (version 1, strict keys). */
std::string fleet_to_json(const FleetProfile& fleet);
FleetProfile fleet_from_json(const std::string& json);
util::Json fleet_json(const FleetProfile& fleet);
FleetProfile fleet_from_cursor(util::JsonCursor& in);

/** One swarm run's outcome, as written to the metrics JSONL. */
struct SwarmRecord
{
    std::string tenant;
    int replica = 0;
    std::uint64_t seed = 0;
    /** False when the run threw; `error` carries the what(). */
    bool ok = false;
    std::string error;
    RunResult result;
};

/** The JSONL line for one record (no trailing newline). */
util::Json swarm_record_json(const SwarmRecord& rec);

/** Knobs for one Fleet::run() call. */
struct FleetRunOptions
{
    /** Worker threads; <= 0 resolves HIVEMIND_SWEEP_THREADS, then
     *  hardware_concurrency (see sweep_workers()). */
    int workers = 0;
    /** JSONL sink: one line per record, in record order, written
     *  after every swarm finished (null = no JSONL). */
    std::ostream* metrics = nullptr;
};

/** What one Fleet::run() did. */
struct FleetResult
{
    /** Every swarm's record, in (tenant index, replica) order —
     *  independent of worker count and completion order. */
    std::vector<SwarmRecord> records;
    /** Records with ok == false. */
    std::size_t failed = 0;
    /** Worker threads actually used. */
    int workers = 0;
    /** Host wall-clock of the swarm runs, seconds (the JSONL write
     *  after them is not counted). */
    double wall_s = 0.0;
    /** Always 0: the fleet has no record queue. Kept because the
     *  repository benchmark still reads it. */
    std::size_t queue_high_water = 0;
};

/**
 * The concurrent multi-swarm driver. Construction validates the
 * profile (platform names resolve, replicas >= 1); run() executes
 * every tenant × replica job through platform::run() on run_sweep()'s
 * worker pool. Each job is self-contained, so results are independent
 * of worker count; a job that throws becomes an ok == false record
 * (the fleet finishes, and the record still reaches the JSONL).
 */
class Fleet
{
  public:
    explicit Fleet(FleetProfile profile);

    const FleetProfile& profile() const { return profile_; }

    /** The DeploymentConfig a given tenant replica runs with. */
    static DeploymentConfig deployment_of(const FleetTenant& tenant,
                                          int replica);

    FleetResult run(const FleetRunOptions& options = {}) const;

  private:
    FleetProfile profile_;
};

}  // namespace hivemind::platform
