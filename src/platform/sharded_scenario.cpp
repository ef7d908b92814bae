#include "platform/sharded_scenario.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/world.hpp"
#include "core/ha.hpp"
#include "geo/maze.hpp"
#include "core/heartbeat.hpp"
#include "core/learning.hpp"
#include "core/load_balancer.hpp"
#include "core/scheduler.hpp"
#include "fault/retry.hpp"
#include "net/shard_link.hpp"
#include "net/topology.hpp"
#include "platform/fnv.hpp"
#include "platform/pipeline_spec.hpp"
#include "sim/slab.hpp"
#include "sim/swarm_runtime.hpp"

namespace hivemind::platform {

namespace {

using fnv::bits;
using fnv::mix;

constexpr std::uint64_t kCtrlMsgBytes = 64;

/** What the result downlink carries back to a device for one frame. */
enum class Reply : std::uint8_t
{
    Result,   ///< The cloud pipeline's result.
    EdgeAck,  ///< DistributedEdge: the on-board result was ingested.
    Lost,     ///< A stage was lost under Restore None: no result.
};
// Origin-id planes for the merge tiebreak. Device ids occupy [0, 2^20);
// each link family gets its own plane so the (when, origin) key never
// collides across channels.
constexpr std::uint64_t kDataUpOrigin = 0;
constexpr std::uint64_t kDataDownOrigin = 1u << 20;
constexpr std::uint64_t kCtrlUpOrigin = 2u << 20;
constexpr std::uint64_t kCtrlDownOrigin = 3u << 20;
// Controller <-> cloud checkpoint RPC plane (one link each way, not
// per-device, so the plane needs a single origin slot).
constexpr std::uint64_t kCkptUpOrigin = 4u << 20;
constexpr std::uint64_t kCkptDownOrigin = 5u << 20;
// Controller-to-cloud backhaul rate for checkpoint traffic. The
// controller sits cloud-side (Sec. 4.6), so this is a wired leg, not
// the device radio.
constexpr double kCkptLinkBps = 1e9;
// The heard-from roster must look fully dead for this many consecutive
// 1 Hz controller ticks before the mission aborts. Heartbeats lag
// reality by up to one beat period plus control-plane transfer, so a
// single all-dead reading can race a rejoin already on the wire.
constexpr int kFleetDeadDwellTicks = 3;
// Recognition frames per device per second while sweeping.
constexpr double kFrameTaskRateHz = 1.0;
// On-board obstacle-avoidance rate (always at the edge, Sec. 2.1).
constexpr double kObstacleRateHz = 2.0;
// Continuous-learning retraining round period (Fig. 15).
constexpr sim::Time kRetrainInterval = 10 * sim::kSecond;

/** Stage shares of one completed frame. */
struct StageShares
{
    double total = 0.0;
    double network = 0.0;
    double mgmt = 0.0;
    double data = 0.0;
    double exec = 0.0;
};

class ShardedScenarioEngine;
struct DeviceActor;

/** One completed frame's stage shares, in its owner shard's log. */
struct TaskResult
{
    std::size_t device = 0;
    StageShares shares;
};

/**
 * One frame's round trip, from capture until its result lands or the
 * frame is given up: a record in the owner shard's slab, so every
 * continuation on the way carries only the engine and the record. The
 * owner shard writes the device half before the frame goes up; the
 * cloud shard writes the cloud half between the uplink's arrival and
 * the result's send, and the result envelope hands the record back.
 * The owner frees it when the frame resolves.
 */
struct FrameTrip
{
    DeviceActor* actor = nullptr;  ///< Fixed for the record's life.
    std::uint32_t slot = 0;        ///< Index in the owner's slab.

    // Device half (owner shard).
    sim::Time t0 = 0;          ///< Capture time.
    sim::Time t1_edge = 0;     ///< On-board stage done (edge kinds).
    double edge_exec_s = 0.0;  ///< On-board execution share.
    geo::Vec2 pos;             ///< Capture position (for detection).
    std::uint64_t gen = 0;     ///< Rover leg generation at capture.
    std::uint64_t bytes = 0;   ///< Uplink payload.
    int attempt = 0;           ///< Offload attempt (retrier backoff).

    // Cloud half (cloud shard).
    sim::Time t1 = 0;           ///< Uplink arrival at the server.
    StageShares shares;         ///< Cloud stage shares (mgmt/data/exec).
    sim::Time cloud_done = 0;   ///< Last stage's completion.
    Reply reply = Reply::Result;
};

/**
 * One edge device actor. Everything here is owned by — and only ever
 * touched from — the device's owner shard, except during wiring and
 * the single-threaded post-run metric sweep; other shards read only
 * `id`, `engine` and the FrameTrip records handed to them.
 */
struct DeviceActor
{
    std::size_t id;
    sim::Simulator* sim;  ///< Owner shard kernel.
    sim::Rng rng;         ///< Device-local stream (jitter, loss, backoff).
    edge::Device dev;
    fault::OffloadRetrier retrier;

    // Wireless state the chaos hooks flip on the owner shard. The
    // Gilbert-Elliott burst state lives on the uplink ShardLink, so it
    // stays local to the owner shard at any shard count.
    bool blocked = false;  ///< Hard partition (loss = 1).
    bool chaos_down = false;  ///< Held down by an injected crash.
    double configured_loss = 0.0;

    net::ShardLink* data_up = nullptr;
    net::ShardLink* ctrl_up = nullptr;
    /** The engine, for the envelopes that carry the actor instead
     *  (heartbeat, capture report); fixed after wiring. */
    ShardedScenarioEngine* engine = nullptr;

    /** The owner shard's round-trip records. */
    sim::Slab<FrameTrip>* trips = nullptr;
    /** Frames captured and not yet resolved (their records held). */
    std::uint64_t inflight = 0;

    /** The owner shard's log of completed frames (TaskResult). */
    std::vector<TaskResult>* results = nullptr;
    /** Running sums of this device's latency, network and exec
     *  shares, in completion order: the checksum reads them. */
    double latency_sum = 0.0;
    double network_sum = 0.0;
    double exec_sum = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t completions = 0;
    std::uint64_t wireless_drops = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t offload_retries = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t radio_bytes = 0;
    std::uint64_t radio_settled = 0;
    double compute_settled = 0.0;

    // Degraded-mode (controller outage) bookkeeping.
    std::uint64_t frames_buffered = 0;   ///< Buffered while degraded.
    std::uint64_t buffered_drained = 0;  ///< Drained after reconnect.
    std::uint64_t drain_lost = 0;      ///< Lost draining (air/death).
    std::uint64_t drain_inflight = 0;  ///< Drain chains still in the air.
    std::uint64_t outage_completions = 0;  ///< Results landed degraded.

    // Route protocol.
    bool awaiting_route = false;
    sim::Time route_requested_at = 0;

    // Rover leg state machine (rover kinds only). The course geometry
    // is flattened into per-leg drive distances at wiring time so the
    // actor never touches controller-owned world state mid-run.
    std::vector<double> legs;        ///< Drive distance per leg, meters.
    std::size_t rover_leg = 0;       ///< Current leg index.
    sim::Time moving_until = 0;      ///< Motion-energy gate (drive end).
    sim::Time job_done_at = -1;      ///< Course finished (-1 = active).
    double job_latency_s = 0.0;      ///< Finish time, seconds.
    /**
     * Bumped on every chaos crash AND rejoin: in-flight drive
     * arrivals, sense retries and cloud round trips carry the
     * generation they were issued under and go stale when it moves,
     * so a resumed leg never races its pre-crash continuations.
     */
    std::uint64_t rover_gen = 0;

    DeviceActor(sim::Simulator& shard, std::uint64_t seed, std::size_t d,
                const edge::DeviceSpec& spec)
        : id(d), sim(&shard), rng(seed), dev(shard, rng, d, spec),
          retrier(fault::RetryConfig{})
    {
    }

    double loss_now() const
    {
        if (blocked)
            return 1.0;
        const double burst = data_up->loss();
        return burst >= 0.0 ? burst : configured_loss;
    }
};

/**
 * One injected device crash: an effective DeviceCrash of the plan,
 * the unit of the MTTD/MTTR ledger. The times are fixed at wiring;
 * the two flags change on the controller's shard only, so each
 * incident yields at most one detection and one repair sample.
 */
struct DeviceIncident
{
    sim::Time at = 0;       ///< Injection.
    sim::Time rejoin = -1;  ///< Scheduled rejoin; -1 = permanent.
    bool detected = false;  ///< MTTD sampled.
    bool repaired = false;  ///< MTTR sampled.
};

/** Controller tier state, pinned to controller_shard(). */
struct ControllerTier
{
    sim::Simulator* sim;
    sim::Rng rng;  ///< World construction + detection rolls.
    core::SwarmLoadBalancer balancer;
    core::FailureDetector detector;
    core::LearningCoordinator learning;
    std::unique_ptr<apps::ItemField> items;
    std::unique_ptr<apps::CrowdField> crowd;
    /** Targets in the current report's view, reused across reports. */
    std::vector<std::size_t> visible;
    /** Rover kinds: true once, immutable after construction (safe to
     *  read from any shard). */
    bool rover = false;
    /** TreasureHunt: per-device panel chains (region-seeded). */
    std::vector<apps::TreasureHunt> courses;
    /** RoverMaze: per-device wall-follower trace lengths. */
    std::vector<std::size_t> maze_steps;
    /** Heard-from finished roster (heartbeats re-announce, so a note
     *  lost to a dead controller is recovered on the next beat). */
    std::vector<char> rover_done;
    std::vector<int> pass;
    std::vector<char> alive_known;
    /**
     * Controller-side view of per-device offload progress, refreshed
     * by the piggybacked heartbeat payload. This is what the HA
     * checkpoint snapshots: the controller can only checkpoint what
     * it has been told, never peek across shards.
     */
    std::vector<std::uint32_t> inflight_known;
    std::vector<std::uint64_t> started_known;
    bool down = false;  ///< Crash/partition window open.
    /**
     * Consecutive 1 Hz ticks the heard-from roster has looked fully
     * dead. The roster is heartbeat-derived and so runs ~1 s stale: a
     * device that just rejoined announces itself with its next beat.
     * Aborting the mission on the first all-dead reading loses that
     * race (the fuzzer found it: overlapping crash windows on a small
     * fleet, a rejoin one tick before the abort), so the abort waits
     * for the view to stay dead across a short dwell.
     */
    int dead_ticks = 0;
    bool done = false;
    bool goal = false;
    double final_goal_fraction = 0.0;
    sim::Time completion = 0;
    sim::Time last_retrain = 0;
    std::uint64_t reports = 0;
    std::uint64_t dropped_msgs = 0;  ///< Messages lost to a dead controller.
    std::uint64_t crashes = 0;
    std::uint64_t takeovers = 0;

    ControllerTier(sim::Simulator& shard, const ScenarioConfig& sc,
                   std::size_t devices, std::uint64_t seed)
        : sim(&shard), rng(seed),
          balancer(geo::Rect{0.0, 0.0, sc.field_size_m, sc.field_size_m},
                   devices),
          detector(shard, devices),
          learning(devices, sc.retrain),
          pass(devices, 0), alive_known(devices, 1),
          inflight_known(devices, 0), started_known(devices, 0)
    {
        if (sc.kind == ScenarioKind::StationaryItems) {
            items = std::make_unique<apps::ItemField>(
                geo::Rect{0.0, 0.0, sc.field_size_m, sc.field_size_m},
                sc.targets, rng);
        } else if (sc.kind == ScenarioKind::MovingPeople) {
            crowd = std::make_unique<apps::CrowdField>(
                geo::Rect{0.0, 0.0, sc.field_size_m, sc.field_size_m},
                sc.targets, 1.4, rng);
        } else {
            // Rover worlds, generated per device from the forked rng
            // in ascending id order — single-threaded construction,
            // so shard-agnostic.
            rover = true;
            rover_done.assign(devices, 0);
            if (sc.kind == ScenarioKind::TreasureHunt) {
                for (std::size_t d = 0; d < devices; ++d) {
                    auto region = balancer.region_of(d);
                    courses.emplace_back(
                        *region, static_cast<std::size_t>(sc.course_legs),
                        rng);
                }
            } else {
                for (std::size_t d = 0; d < devices; ++d) {
                    geo::Maze maze(sc.maze_side, sc.maze_side, rng);
                    auto trace = geo::wall_follow(
                        maze, sc.maze_side - 1, sc.maze_side - 1,
                        static_cast<std::size_t>(sc.maze_side) *
                            static_cast<std::size_t>(sc.maze_side) * 8);
                    maze_steps.push_back(trace.size());
                }
            }
        }
    }

    double goal_fraction() const
    {
        if (items) {
            return static_cast<double>(items->found_count()) /
                static_cast<double>(items->item_count());
        }
        if (crowd) {
            return static_cast<double>(crowd->counted_count()) /
                static_cast<double>(crowd->population());
        }
        // Rover kinds: fraction of rovers known to have finished.
        std::size_t finished = 0;
        for (char f : rover_done) {
            if (f)
                ++finished;
        }
        return rover_done.empty()
            ? 0.0
            : static_cast<double>(finished) /
                static_cast<double>(rover_done.size());
    }

    std::uint64_t world_digest() const
    {
        if (items)
            return items->found_count();
        if (crowd)
            return crowd->counted_count();
        std::uint64_t finished = 0;
        for (char f : rover_done)
            finished += f ? 1u : 0u;
        return finished;
    }
};

/**
 * One sharded scenario run. Lives on the stack of
 * run_scenario_sharded(); shard kernels call back into it, each
 * callback touching only the state its shard owns.
 */
class ShardedScenarioEngine
{
  public:
    ShardedScenarioEngine(const ScenarioConfig& sc,
                          const PlatformOptions& opt,
                          const DeploymentConfig& dep, int shards)
        : sc_(sc), opt_(opt),
          pipe_(pipeline_for(sc.kind, sc.frame_bytes_override)),
          runtime_(shards),
          ctrl_shard_(controller_shard(shards)),
          cloud_rng_(dep.seed ^ 0x5eedc0deull),
          // The radio segment is simulated device-side on the owner
          // shards, so the cloud topology only carries the wired legs
          // and needs no loss RNG.
          cloud_(runtime_.shard(kCloudShard), cloud_rng_, dep, opt,
                 nullptr),
          ctrl_(runtime_.shard(ctrl_shard_), sc, dep.devices,
                dep.seed ^ 0x5ca1ab1eull)
    {
        // The plan's targets, against the cloud this run built:
        // scale_infra grows the server count with the swarm.
        fault::PlanBounds bounds;
        bounds.devices = dep.devices;
        bounds.servers = cloud_.config().servers;
        sc.faults.validate_or_throw(bounds);
        runtime_.set_adaptive_lookahead(sc.adaptive_lookahead);
        wire_devices(dep);
        wire_rovers();
        wire_controller();
        wire_ha(dep);
        arm_chaos();
        wire_incidents();
    }

    RunResult run();

  private:
    bool hivemind() const { return opt_.kind == PlatformKind::HiveMind; }

    // --- Device side (owner shards) ---
    void device_tick(DeviceActor& a);
    void frame_task(DeviceActor& a);
    /** A round-trip record for a frame @p a captures now. */
    FrameTrip* new_trip(DeviceActor& a);
    /** The frame resolved: free its record on the owner shard. */
    void drop_trip(FrameTrip* trip);
    void launch_frame(DeviceActor& a, FrameTrip* trip);
    /** Offload the frame's trip->bytes (attempt trip->attempt). */
    void offload(FrameTrip* trip);
    void air_attempt(FrameTrip* trip, int tries_left);
    void air_failed(FrameTrip* trip);
    void on_result(FrameTrip* trip);
    void drain_backlog(DeviceActor& a);
    void drain_attempt(DeviceActor& a, std::uint64_t bytes,
                       std::uint64_t frames, int tries_left);

    // --- Rover leg state machine (owner shards) ---
    void rover_begin_leg(DeviceActor& a);
    void rover_sense(DeviceActor& a);
    void rover_retry(DeviceActor& a);

    // --- Cloud side (cloud shard) ---
    void cloud_ingress(FrameTrip* trip);
    void invoke_stages(FrameTrip* trip, sim::Time t1);
    /** The recognition stage finished with @p r1. */
    void recognized(FrameTrip* trip, const CloudResult& r1);
    /** Send @p reply (trip->shares for a result) down to the device. */
    void send_result(FrameTrip* trip, sim::Time cloud_done, Reply reply);
    /** The result's wired downlink ended: put it on the air. */
    void result_downlinked(FrameTrip* trip);

    // --- Controller side (controller shard) ---
    void controller_tick();
    void on_beat(std::size_t device, std::uint32_t inflight,
                 std::uint64_t started, bool rover_finished);
    void on_report(std::size_t device, geo::Vec2 pos, sim::Time t0);
    void on_rover_progress(std::size_t device);
    void on_rover_done(std::size_t device);
    void on_route_request(std::size_t device);
    void send_route(std::size_t device);
    void on_device_failed(std::size_t device);
    void on_device_recovered(std::size_t device);
    void finish(bool goal);

    // --- Device-crash MTTD/MTTR ledger (controller shard) ---
    DeviceIncident* incident_at(std::size_t device, sim::Time now);
    void note_detected(std::size_t device);
    void note_restored(std::size_t device, bool repartitioned);

    // --- Controller HA (controller shard, RPCs to the cloud shard) ---
    /** core::HaConfig's defaults with the scenario's checkpoint period. */
    core::HaConfig ha_config() const
    {
        return core::HaConfig{.checkpoint_interval = sc_.checkpoint_interval};
    }
    core::ControllerCheckpoint make_checkpoint() const;
    core::ReconcileReport reconcile_after_takeover(
        const core::ControllerCheckpoint& cp);
    void availability_changed(bool up);

    void wire_devices(const DeploymentConfig& dep);
    void wire_rovers();
    void wire_controller();
    void wire_ha(const DeploymentConfig& dep);
    void arm_chaos();
    void wire_incidents();
    RunMetrics collect_metrics();
    fault::RunAudit build_audit(const RunMetrics& m) const;
    std::uint64_t checksum() const;

    ScenarioConfig sc_;
    PlatformOptions opt_;
    PipelineSpec pipe_;
    sim::SwarmRuntime runtime_;
    int ctrl_shard_;  ///< controller_shard(): the controller tier's.
    sim::Rng cloud_rng_;  ///< The cloud tier's stream (cloud shard).
    CloudTier cloud_;
    // Air-side ledger, metered on the cloud shard.
    sim::RateMeter air_meter_;
    std::uint64_t corrupt_frames_ = 0;
    ControllerTier ctrl_;
    /** Per-shard slabs of frame round trips (FrameTrip). */
    std::vector<sim::Slab<FrameTrip>> trips_;
    /**
     * Per-shard logs of completed frames, in completion order; the
     * post-run sweep folds them into the metrics device by device. One
     * log per shard grows a few times per run, not a few times per
     * device and stat.
     */
    std::vector<std::vector<TaskResult>> results_;
    std::vector<std::unique_ptr<DeviceActor>> devices_;
    /** Per-shard device rosters (ascending id) for the 1 Hz tick. */
    std::vector<std::vector<std::size_t>> tick_groups_;
    std::vector<net::ShardLink> data_up_, data_down_, ctrl_up_, ctrl_down_;
    fault::ShardChaosReport chaos_;
    std::uint64_t crashed_servers_ = 0;
    std::uint64_t datastore_outages_ = 0;
    std::uint64_t partitions_ = 0;
    std::uint64_t device_crashes_ = 0;
    std::uint64_t device_rejoins_ = 0;
    std::uint64_t ctrl_partitions_ = 0;
    std::uint64_t link_bursts_fired_ = 0;  ///< Windows actually opened.

    // Crash ledger. Device incidents are indexed by device id (empty
    // when the plan crashes no device) and sampled on the controller's
    // shard; the restored server crashes' down times accrue on the
    // cloud shard.
    std::vector<std::vector<DeviceIncident>> incidents_;
    sim::Summary device_mttd_, device_mttr_;
    sim::Summary server_mttr_;

    // Controller HA: the cluster lives on the controller's shard, its
    // checkpoints on the cloud shard's DataStore, reached over a
    // dedicated ShardLink plane so checkpoint traffic is metered like
    // everything else.
    std::unique_ptr<core::HaCluster> ha_;
    std::unique_ptr<net::ShardLink> ckpt_up_, ckpt_down_;
    /** Write-loss rolls on the controller's shard. */
    std::unique_ptr<sim::Rng> ckpt_rng_;
    std::uint64_t ckpt_writes_lost_ = 0;
};

void
ShardedScenarioEngine::wire_devices(const DeploymentConfig& dep)
{
    const std::size_t n = dep.devices;
    const double loss = cloud_.network().config().wireless_loss;
    devices_.reserve(n);
    data_up_.reserve(n);
    data_down_.reserve(n);
    ctrl_up_.reserve(n);
    ctrl_down_.reserve(n);
    for (std::size_t d = 0; d < n; ++d) {
        const int owner = device_shard(d, runtime_.shards());
        sim::Simulator& shard = runtime_.shard(owner);
        devices_.push_back(std::make_unique<DeviceActor>(
            shard, dep.seed ^ (0x9e3779b97f4a7c15ull * (d + 1)), d,
            dep.device_spec));
        DeviceActor* a = devices_.back().get();
        a->configured_loss = loss;
        // Data plane to/from the cloud shard; control plane to/from
        // the controller's shard. All four share the radio's
        // propagation delay, which doubles as the declared channel
        // lookahead.
        data_up_.emplace_back(runtime_, owner, kCloudShard,
                              kDataUpOrigin + d, net::kDeviceRadioBps,
                              net::kWirelessProp);
        data_down_.emplace_back(runtime_, kCloudShard, owner,
                                kDataDownOrigin + d, net::kDeviceRadioBps,
                                net::kWirelessProp);
        ctrl_up_.emplace_back(runtime_, owner, ctrl_shard_,
                              kCtrlUpOrigin + d, net::kDeviceRadioBps,
                              net::kWirelessProp);
        ctrl_down_.emplace_back(runtime_, ctrl_shard_, owner,
                                kCtrlDownOrigin + d, net::kDeviceRadioBps,
                                net::kWirelessProp);
    }
    trips_.resize(static_cast<std::size_t>(runtime_.shards()));
    results_.resize(static_cast<std::size_t>(runtime_.shards()));
    for (std::size_t d = 0; d < n; ++d) {
        DeviceActor* a = devices_[d].get();
        const auto owner =
            static_cast<std::size_t>(device_shard(d, runtime_.shards()));
        a->data_up = &data_up_[d];
        a->ctrl_up = &ctrl_up_[d];
        a->engine = this;
        a->trips = &trips_[owner];
        a->results = &results_[owner];
    }

    // 1 Hz housekeeping: energy accounting, heartbeat, route asks —
    // one wheel event per shard per tick, sweeping that shard's
    // devices in ascending id so equal-time tick order never depends
    // on the shard count. Wired before the Poisson processes below so
    // same-time ties resolve tick-first on every shard count.
    tick_groups_.resize(static_cast<std::size_t>(runtime_.shards()));
    for (std::size_t d = 0; d < n; ++d)
        tick_groups_[static_cast<std::size_t>(
                         device_shard(d, runtime_.shards()))]
            .push_back(d);
    for (int s = 0; s < runtime_.shards(); ++s) {
        const auto* grp = &tick_groups_[static_cast<std::size_t>(s)];
        if (grp->empty())
            continue;
        sim::recurring(runtime_.shard(s), sim::kSecond,
                       [this, grp](const sim::Recur& self) {
                           for (std::size_t d : *grp)
                               device_tick(*devices_[d]);
                           self.again_in(sim::kSecond);
                       });
    }

    for (std::size_t d = 0; d < n; ++d) {
        DeviceActor* a = devices_[d].get();
        sim::Simulator& shard = *a->sim;

        // Rovers sense once per leg, driven by the leg state machine —
        // no Poisson frame clock, no on-board obstacle stream (those
        // model the drone flight stack, Sec. 2.1).
        if (ctrl_.rover)
            continue;

        // Poisson recognition frames while alive.
        sim::recurring(
            shard, sim::from_seconds(a->rng.uniform(0.0, 1.0)),
            [this, a](const sim::Recur& self) {
                if (a->dev.alive())
                    frame_task(*a);
                self.again_in(sim::from_seconds(
                    a->rng.exponential(1.0 / kFrameTaskRateHz)));
            });

        // Obstacle avoidance always runs on-board (Sec. 2.1) and
        // never leaves the device: the submit has no completion
        // callback.
        sim::recurring(
            shard, sim::from_seconds(a->rng.uniform(0.0, 0.5)),
            [a, this](const sim::Recur& self) {
                if (a->dev.alive())
                    a->dev.executor().submit(18.0 * 0.55, nullptr);
                self.again_in(sim::from_seconds(
                    a->rng.exponential(1.0 / kObstacleRateHz)));
            });
    }
}

void
ShardedScenarioEngine::wire_rovers()
{
    if (!ctrl_.rover)
        return;
    // Flatten the controller-generated course geometry into per-leg
    // drive distances here, while wiring is still single-threaded, so
    // the leg state machine on the owner shard never reads
    // controller-owned world state mid-run.
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        DeviceActor& a = *devices_[d];
        if (sc_.kind == ScenarioKind::TreasureHunt) {
            const apps::TreasureHunt& course = ctrl_.courses[d];
            geo::Vec2 from = ctrl_.balancer.region_of(d)->center();
            for (std::size_t leg = 0; leg < course.panel_count(); ++leg) {
                a.legs.push_back(from.distance_to(course.panel(leg)));
                from = course.panel(leg);
            }
        } else {
            a.legs.assign(ctrl_.maze_steps[d], 1.0);  // One cell per leg.
        }
        rover_begin_leg(a);
    }
}

void
ShardedScenarioEngine::wire_controller()
{
    ctrl_.detector.set_on_failure(
        [this](std::size_t d) { on_device_failed(d); });
    ctrl_.detector.set_on_recovery(
        [this](std::size_t d) { on_device_recovered(d); });
    ctrl_.detector.start();

    // Initial sweep routes ride the control downlinks before the run
    // starts, landing in deterministic merge order like any message.
    // Rovers carry their own course — no sweep routes to hand out.
    if (!ctrl_.rover) {
        for (std::size_t d = 0; d < devices_.size(); ++d)
            send_route(d);
    }

    sim::recurring(*ctrl_.sim, sim::kSecond,
                   [this](const sim::Recur& self) {
                       controller_tick();
                       if (!ctrl_.done)
                           self.again_in(sim::kSecond);
                   });
}

void
ShardedScenarioEngine::wire_ha(const DeploymentConfig& dep)
{
    // Only runs that can actually lose their swarm controller pay for
    // the HA stack, so every other run replays checksum-identically
    // to the pre-HA behavior. run_scenario_sharded() refuses such
    // plans on every platform but HiveMind.
    if (!plan_has_controller_faults(sc_.faults))
        return;
    // The checkpoint plane shares the radio propagation so it never
    // tightens the declared lookahead below the existing channels.
    ckpt_up_ = std::make_unique<net::ShardLink>(
        runtime_, ctrl_shard_, kCloudShard, kCkptUpOrigin, kCkptLinkBps,
        net::kWirelessProp);
    ckpt_down_ = std::make_unique<net::ShardLink>(
        runtime_, kCloudShard, ctrl_shard_, kCkptDownOrigin, kCkptLinkBps,
        net::kWirelessProp);
    ckpt_rng_ = std::make_unique<sim::Rng>(dep.seed ^ 0xc4ec9017ull);

    ha_ = std::make_unique<core::HaCluster>(*ctrl_.sim, ha_config());
    // Checkpoint writes ride the RPC plane to the cloud DataStore and
    // commit on the controller's shard once the ack returns; a write
    // lost on the plane simply never becomes durable (the next
    // interval retries).
    ha_->checkpoint_store().set_transport(
        [this](std::uint64_t bytes, std::function<void()> commit) {
            const double loss = ckpt_up_->loss();
            if (loss > 0.0 && ckpt_rng_->chance(loss)) {
                ++ckpt_writes_lost_;
                return;
            }
            ckpt_up_->transfer(
                bytes,
                sim::InlineFn([this, bytes,
                               commit = std::move(commit)]() mutable {
                    cloud_.store().access(
                        bytes, [this, commit = std::move(commit)]() mutable {
                            ckpt_down_->transfer(
                                kCtrlMsgBytes,
                                sim::InlineFn(std::move(commit)));
                        });
                }));
        },
        [this](std::uint64_t bytes, std::function<void()> done) {
            // Standby read: small request up, store fetch, payload back.
            ckpt_up_->transfer(
                kCtrlMsgBytes,
                sim::InlineFn([this, bytes,
                               done = std::move(done)]() mutable {
                    cloud_.store().access(
                        bytes, [this, bytes,
                                done = std::move(done)]() mutable {
                            ckpt_down_->transfer(
                                bytes, sim::InlineFn(std::move(done)));
                        });
                }));
        });
    ha_->set_snapshot([this] { return make_checkpoint(); });
    ha_->set_on_takeover([this](const core::ControllerCheckpoint& cp) {
        return reconcile_after_takeover(cp);
    });
    ha_->set_on_availability([this](bool up) { availability_changed(up); });
    ha_->set_on_restored([this](double checkpoint_age_s) {
        if (checkpoint_age_s >= 0.0)
            ++ctrl_.takeovers;  // Standby promoted; partitions return
                                // the same instance.
    });
    ha_->start();
}

void
ShardedScenarioEngine::arm_chaos()
{
    fault::ShardChaosHooks hooks;
    hooks.devices = devices_.size();
    hooks.burst_seed = cloud_.config().seed;
    hooks.crash_device = [this](std::size_t d) {
        DeviceActor& a = *devices_[d];
        // A device already held down is not a second incident: the
        // first scheduled rejoin ends the incident. route_plan() only
        // routes effective crashes, so this guard is a backstop that
        // keeps the crash and rejoin ledgers exact under overlapping
        // crash windows (e.g. Poisson churn on a small fleet).
        if (a.chaos_down)
            return;
        a.chaos_down = true;
        a.dev.set_failed(true);
        if (ctrl_.rover)
            ++a.rover_gen;  // Strand in-flight leg continuations.
        ++device_crashes_;
    };
    hooks.rejoin_device = [this](std::size_t d) {
        DeviceActor& a = *devices_[d];
        if (!a.chaos_down)
            return;
        a.chaos_down = false;
        a.dev.set_failed(false);
        ++device_rejoins_;  // Heartbeats resume; the detector rejoins it.
        if (ctrl_.rover) {
            // The crash interrupted the current leg mid-drive or
            // mid-offload; bump the generation again (a rejoin is a
            // fresh epoch too) and re-drive the leg from its start.
            ++a.rover_gen;
            if (a.job_done_at < 0)
                rover_begin_leg(a);
        }
    };
    hooks.set_device_loss = [this](std::size_t d, double loss) {
        data_up_[d].set_loss(loss);
    };
    hooks.note_link_burst = [this] { ++link_bursts_fired_; };
    hooks.partition_device = [this](std::size_t d, bool on) {
        devices_[d]->blocked = on;
        if (on)
            ++partitions_;
    };
    hooks.crash_server = [this](std::size_t s, sim::Time down_for) {
        // route_plan() routes only effective crashes (never one on a
        // server still down), so every call here is a new incident.
        cloud_.faas().crash_server(s);
        ++crashed_servers_;
        // Worker monitors detect the crash at once; service is back
        // when the server rejoins placement, down_for later.
        if (down_for > 0)
            server_mttr_.add(sim::to_seconds(down_for));
    };
    hooks.recover_server = [this](std::size_t s) {
        cloud_.faas().restore_server(s);
    };
    hooks.datastore_outage = [this](sim::Time duration) {
        cloud_.store().fail_until(cloud_.simulator().now() + duration);
        ++datastore_outages_;
    };
    if (ha_) {
        // The real stack: missed heartbeats, election, checkpoint
        // replay. availability_changed() flips the down flag.
        hooks.crash_controller = [this] {
            ++ctrl_.crashes;
            ha_->crash_active();
        };
        hooks.partition_controller = [this](sim::Time duration) {
            ++ctrl_partitions_;
            ha_->partition(duration);
        };
    }
    chaos_ = fault::route_plan(
        runtime_, sc_.faults,
        [this](std::size_t d) { return device_shard(d, runtime_.shards()); },
        hooks, ctrl_shard_);
}

void
ShardedScenarioEngine::wire_incidents()
{
    // The same effective crashes route_plan() scheduled, so every
    // incident here is a crash that fires (if the run reaches it).
    const fault::FaultPlan& plan = sc_.faults;
    const std::vector<bool> fires = fault::effective_crashes(plan);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const fault::FaultEvent& e = plan.events[i];
        if (!fires[i] || e.kind != fault::FaultKind::DeviceCrash)
            continue;
        if (incidents_.empty())
            incidents_.resize(devices_.size());
        DeviceIncident inc;
        inc.at = e.at;
        if (e.duration > 0)
            inc.rejoin = e.at + e.duration;
        incidents_[e.target].push_back(inc);
    }
    // A device's effective crashes never overlap, so injection order
    // is incident order.
    for (std::vector<DeviceIncident>& list : incidents_)
        std::sort(list.begin(), list.end(),
                  [](const DeviceIncident& a, const DeviceIncident& b) {
                      return a.at < b.at;
                  });
}

// ---------------------------------------------------------------------
// Device side
// ---------------------------------------------------------------------

void
ShardedScenarioEngine::device_tick(DeviceActor& a)
{
    if (!a.dev.alive())
        return;
    if (ctrl_.rover) {
        // Rovers burn motion power only while a leg's drive is under
        // way (plus one grace second past arrival); a rover parked on
        // a sense retry or a finished course idles its drivetrain.
        if (a.job_done_at < 0 &&
            a.sim->now() <= a.moving_until + sim::kSecond)
            a.dev.account_motion(1.0);
    } else {
        // Drones hover (full motion power) for the whole mission.
        a.dev.account_motion(1.0);
    }
    a.dev.account_idle(1.0);
    double busy = a.dev.executor().busy_seconds();
    a.dev.account_compute(busy - a.compute_settled);
    a.compute_settled = busy;
    std::uint64_t delta = a.radio_bytes - a.radio_settled;
    a.radio_settled = a.radio_bytes;
    a.dev.account_radio(delta);
    if (a.dev.battery().depleted()) {
        a.dev.set_failed(true);  // Heartbeats stop; detector reacts.
        return;
    }
    const std::size_t d = a.id;
    // The heartbeat piggybacks the device's offload progress, which is
    // all the controller may checkpoint — it cannot peek across shards.
    const std::uint32_t inflight = static_cast<std::uint32_t>(a.inflight);
    const std::uint64_t started = a.frames;
    // Rovers piggyback their finished flag on the beat: a completion
    // note lost to a dead controller is re-announced every second, so
    // the goal roster converges once a controller is back.
    const bool finished = ctrl_.rover && a.job_done_at >= 0;
    // The actor, not {this, d}: 24 bytes, inline in the envelope. Its
    // id and engine never change after wiring.
    a.ctrl_up->transfer(kCtrlMsgBytes,
                        sim::InlineFn([ap = &a, inflight, started, finished] {
                            ap->engine->on_beat(ap->id, inflight, started,
                                                finished);
                        }));
    if (ctrl_.rover)
        return;  // No sweep routes to retrace or request.
    sim::Time now = a.sim->now();
    if (a.dev.degraded()) {
        // Controller outage: retrace the last route on-board instead
        // of asking a dead controller for the next sweep (Sec. 4.6).
        if (a.dev.route_done(now))
            a.dev.resume_route_reversed();
        return;
    }
    if (a.dev.route_done(now) &&
        (!a.awaiting_route ||
         now - a.route_requested_at >= 3 * sim::kSecond)) {
        a.awaiting_route = true;
        a.route_requested_at = now;
        a.ctrl_up->transfer(
            kCtrlMsgBytes,
            sim::InlineFn([this, d] { on_route_request(d); }));
    }
}

void
ShardedScenarioEngine::frame_task(DeviceActor& a)
{
    if (a.dev.degraded()) {
        // Degraded mode: keep sensing, buffer the frame on-board and
        // drain it once a controller is reachable again (Sec. 4.6).
        if (a.dev.buffer_frame(pipe_.frame_bytes))
            ++a.frames_buffered;
        return;
    }
    ++a.frames;
    sim::Time t0 = a.sim->now();
    FrameTrip* trip = new_trip(a);
    trip->t0 = t0;
    trip->pos = a.dev.position_at(t0);
    launch_frame(a, trip);
}

FrameTrip*
ShardedScenarioEngine::new_trip(DeviceActor& a)
{
    const std::uint32_t slot = a.trips->acquire();
    FrameTrip* trip = &(*a.trips)[slot];
    *trip = FrameTrip{};
    trip->actor = &a;
    trip->slot = slot;
    ++a.inflight;
    return trip;
}

void
ShardedScenarioEngine::drop_trip(FrameTrip* trip)
{
    DeviceActor& a = *trip->actor;
    --a.inflight;
    a.trips->release(trip->slot);
}

/** Platform-kind dispatch for a just-captured frame (drone or rover). */
void
ShardedScenarioEngine::launch_frame(DeviceActor& a, FrameTrip* trip)
{
    // A task the on-board queue sheds never calls back: its frame
    // stays in flight and keeps its record.
    if (opt_.kind == PlatformKind::DistributedEdge) {
        // Everything on-board; only the final result is uplinked.
        double total_work = pipe_.rec_work_ms + pipe_.dedup_work_ms;
        a.dev.executor().submit(total_work, [this, trip](double exec_s) {
            trip->edge_exec_s = exec_s;
            trip->t1_edge = trip->actor->sim->now();
            trip->bytes = pipe_.result_bytes;
            offload(trip);
        });
        return;
    }
    if (hivemind()) {
        // On-board pre-filter, then the reduced candidate stream.
        a.dev.executor().submit(
            hivemind_prefilter_work_ms(pipe_),
            [this, trip](double pre_exec_s) {
                trip->edge_exec_s = pre_exec_s;
                trip->bytes = static_cast<std::uint64_t>(
                    hivemind_uplink_bytes(pipe_));
                offload(trip);
            });
        return;
    }
    // Centralized (FaaS or IaaS): full frame uplink.
    trip->bytes = pipe_.frame_bytes;
    offload(trip);
}

// ---------------------------------------------------------------------
// Rover leg state machine (owner shards)
// ---------------------------------------------------------------------

/**
 * Start (or resume) the current leg: drive to the next panel / cell,
 * then sense. A finished course announces itself over the control
 * plane and keeps re-announcing via the heartbeat flag.
 */
void
ShardedScenarioEngine::rover_begin_leg(DeviceActor& a)
{
    if (!a.dev.alive() || a.job_done_at >= 0)
        return;
    if (a.rover_leg >= a.legs.size()) {
        a.job_done_at = a.sim->now();
        a.job_latency_s = sim::to_seconds(a.job_done_at);
        const std::size_t d = a.id;
        a.ctrl_up->transfer(kCtrlMsgBytes,
                            sim::InlineFn([this, d] { on_rover_done(d); }));
        return;
    }
    const double dist = a.legs[a.rover_leg];
    const sim::Time drive =
        sim::from_seconds(dist / a.dev.spec().speed_mps);
    a.moving_until = a.sim->now() + drive;
    const std::uint64_t gen = a.rover_gen;
    a.sim->schedule_in(drive, [this, ap = &a, gen] {
        if (gen != ap->rover_gen)
            return;  // Crashed (and maybe rejoined) mid-drive.
        rover_sense(*ap);
    });
}

/**
 * Photograph the panel / sense the walls and push the frame through
 * the offload pipeline. The rover holds position until the processed
 * instructions come back (on_result advances the leg).
 */
void
ShardedScenarioEngine::rover_sense(DeviceActor& a)
{
    if (!a.dev.alive() || a.job_done_at >= 0)
        return;
    if (a.dev.degraded()) {
        // No controller to route instructions: park (motion accounting
        // stopped by the moving_until gate) and re-sense after a beat.
        rover_retry(a);
        return;
    }
    ++a.frames;
    sim::Time t0 = a.sim->now();
    FrameTrip* trip = new_trip(a);
    trip->t0 = t0;
    trip->pos = a.dev.position_at(t0);
    trip->gen = a.rover_gen;
    launch_frame(a, trip);
}

/**
 * The instructions never arrived (open breaker, blackout, degraded
 * window): retry the sense — not the drive — after a 1 s dwell. The
 * rover is already parked at the panel, so no motion energy is booked
 * while it waits (moving_until stays in the past).
 */
void
ShardedScenarioEngine::rover_retry(DeviceActor& a)
{
    if (a.job_done_at >= 0)
        return;
    const std::uint64_t gen = a.rover_gen;
    a.sim->schedule_in(sim::kSecond, [this, ap = &a, gen] {
        if (gen != ap->rover_gen)
            return;
        rover_sense(*ap);
    });
}

void
ShardedScenarioEngine::offload(FrameTrip* trip)
{
    DeviceActor& a = *trip->actor;
    if (a.retrier.circuit_open(a.sim->now())) {
        // Breaker open: fail fast; the device sits out its probation
        // window instead of queueing radio traffic (Sec. 4.6).
        ++a.abandoned;
        drop_trip(trip);
        if (ctrl_.rover)
            rover_retry(a);  // The leg is not done; re-sense later.
        return;
    }
    a.radio_bytes += trip->bytes;  // Radio energy per offload attempt.
    air_attempt(trip, cloud_.network().config().max_retransmits);
}

void
ShardedScenarioEngine::air_attempt(FrameTrip* trip, int tries_left)
{
    DeviceActor& a = *trip->actor;
    const double loss = a.loss_now();
    if (loss >= 1.0) {
        // Radio blackout: nothing reaches the air; each retry burns a
        // retransmit timeout until the budget is gone.
        if (tries_left <= 0) {
            ++a.wireless_drops;
            air_failed(trip);
            return;
        }
        ++a.retransmits;
        a.sim->schedule_in(net::kRetransmitTimeout, [this, trip, tries_left] {
            air_attempt(trip, tries_left - 1);
        });
        return;
    }
    const bool corrupt = loss > 0.0 && a.rng.chance(loss);
    if (corrupt) {
        // The transfer still occupies the serializer and the air — it
        // arrives as garbage, counted cloud-side, and is retried one
        // timeout after that arrival (the sender learns of the loss no
        // earlier). The final attempt drops like any other lossy one.
        sim::Time arrival = a.data_up->transfer(
            trip->bytes, sim::InlineFn([this] { ++corrupt_frames_; }));
        if (tries_left <= 0) {
            ++a.wireless_drops;
            air_failed(trip);
            return;
        }
        ++a.retransmits;
        const sim::Time retry = arrival + net::kRetransmitTimeout;
        a.sim->schedule_at(retry, [this, trip, tries_left] {
            air_attempt(trip, tries_left - 1);
        });
        return;
    }
    a.retrier.record_success();
    a.data_up->transfer(trip->bytes,
                        sim::InlineFn([this, trip] { cloud_ingress(trip); }));
}

void
ShardedScenarioEngine::air_failed(FrameTrip* trip)
{
    DeviceActor& a = *trip->actor;
    sim::Time now = a.sim->now();
    if (a.retrier.record_failure(now))
        ++a.breaker_opens;
    if (trip->attempt + 1 >= fault::kMaxOffloadAttempts ||
        a.retrier.circuit_open(now)) {
        ++a.abandoned;
        drop_trip(trip);
        if (ctrl_.rover)
            rover_retry(a);  // The leg is not done; re-sense later.
        return;
    }
    ++a.offload_retries;
    a.sim->schedule_in(a.retrier.backoff(trip->attempt, a.rng),
                       [this, trip] {
                           ++trip->attempt;
                           offload(trip);
                       });
}

void
ShardedScenarioEngine::on_result(FrameTrip* trip)
{
    DeviceActor& a = *trip->actor;
    const FrameTrip p = *trip;
    drop_trip(trip);

    if (p.reply == Reply::Lost) {
        // The cloud lost the task (Restore None): the frame is dropped,
        // not delivered, and a rover re-senses unless a crash/rejoin
        // re-drive owns the leg now.
        a.radio_bytes += kCtrlMsgBytes;  // The notice burns radio too.
        ++a.abandoned;
        if (ctrl_.rover && p.gen == a.rover_gen)
            rover_retry(a);
        return;
    }
    StageShares r;
    if (p.reply == Reply::EdgeAck) {
        // DistributedEdge: t1 is the result's arrival at the cloud.
        a.radio_bytes += kCtrlMsgBytes;  // The ack burns radio too.
        r.total = sim::to_seconds(p.t1 - p.t0);
        r.network = sim::to_seconds(p.t1 - p.t1_edge);
        r.exec = p.edge_exec_s;
        double q = sim::to_seconds(p.t1_edge - p.t0) - p.edge_exec_s;
        r.mgmt = q > 0.0 ? q : 0.0;
    } else {
        sim::Time t3 = a.sim->now();
        a.radio_bytes += pipe_.result_bytes;  // Downlink radio energy.
        r.total = sim::to_seconds(t3 - p.t0);
        r.network = sim::to_seconds(p.t1 - p.t0) - p.edge_exec_s +
            sim::to_seconds(t3 - p.cloud_done);
        if (r.network < 0.0)
            r.network = 0.0;
        r.mgmt = p.shares.mgmt;
        r.data = p.shares.data;
        r.exec = p.shares.exec + p.edge_exec_s;
    }
    a.results->push_back({a.id, r});
    a.latency_sum += r.total;
    a.network_sum += r.network;
    a.exec_sum += r.exec;
    ++a.completions;
    if (a.dev.degraded())
        ++a.outage_completions;  // Outage goodput: landed while dark.

    const std::size_t d = a.id;
    if (ctrl_.rover) {
        // Rover instructions processed: report leg progress upstream
        // and advance — unless the frame predates a crash/rejoin, in
        // which case the rejoin's re-drive owns the leg now.
        a.ctrl_up->transfer(kCtrlMsgBytes, sim::InlineFn([this, d] {
                                on_rover_progress(d);
                            }));
        if (p.gen == a.rover_gen && a.dev.alive() && a.job_done_at < 0) {
            ++a.rover_leg;
            rover_begin_leg(a);
        }
        return;
    }
    // The actor, not {this, d}: 32 bytes, inline in the envelope. Its
    // id and engine never change after wiring.
    const geo::Vec2 pos = p.pos;
    const sim::Time t0 = p.t0;
    a.ctrl_up->transfer(kCtrlMsgBytes,
                        sim::InlineFn([ap = &a, pos, t0] {
                            ap->engine->on_report(ap->id, pos, t0);
                        }));
}

void
ShardedScenarioEngine::drain_backlog(DeviceActor& a)
{
    edge::Device::DrainedFrames backlog = a.dev.drain_buffered();
    if (backlog.frames == 0)
        return;
    if (!a.dev.alive()) {
        // The buffer already gave the frames up; the device died before
        // the drain could start, so the ledger books them as lost.
        a.drain_lost += backlog.frames;
        return;
    }
    // Drain the buffered backlog through the pre-filtered uplink (the
    // on-board filter kept running while buffering), with the same
    // retransmit budget as any other offload.
    const std::uint64_t bytes = static_cast<std::uint64_t>(
        hivemind_uplink_bytes(pipe_) * static_cast<double>(backlog.frames));
    a.radio_bytes += bytes;
    a.drain_inflight += backlog.frames;
    drain_attempt(a, bytes, backlog.frames,
                  cloud_.network().config().max_retransmits);
}

void
ShardedScenarioEngine::drain_attempt(DeviceActor& a, std::uint64_t bytes,
                                     std::uint64_t frames, int tries_left)
{
    const double loss = a.loss_now();
    if (loss > 0.0 && (loss >= 1.0 || a.rng.chance(loss))) {
        if (tries_left <= 0) {
            ++a.wireless_drops;  // Backlog lost on the air.
            a.drain_lost += frames;
            a.drain_inflight -= frames;
            return;
        }
        ++a.retransmits;
        a.sim->schedule_in(net::kRetransmitTimeout,
                           [this, ap = &a, bytes, frames, tries_left] {
                               drain_attempt(*ap, bytes, frames,
                                             tries_left - 1);
                           });
        return;
    }
    // A non-corrupt transfer always arrives, so the drain is settled
    // here on the owner shard; the cloud side only meters the bytes.
    a.buffered_drained += frames;
    a.drain_inflight -= frames;
    a.data_up->transfer(bytes, sim::InlineFn([this, bytes] {
                            air_meter_.add(
                                cloud_.simulator().now(),
                                static_cast<double>(bytes));
                        }));
}

// ---------------------------------------------------------------------
// Cloud side
// ---------------------------------------------------------------------

void
ShardedScenarioEngine::cloud_ingress(FrameTrip* trip)
{
    const std::size_t device = trip->actor->id;
    air_meter_.add(cloud_.simulator().now(),
                   static_cast<double>(trip->bytes));
    const std::size_t server = device % cloud_.config().servers;
    if (opt_.kind == PlatformKind::DistributedEdge) {
        // The on-board result only needs ingesting; the ack carries
        // its cloud arrival time back for the latency books.
        cloud_.network().send_uplink_wired(
            device, server, trip->bytes, [this, trip](sim::Time t2) {
                trip->t1 = t2;
                send_result(trip, t2, Reply::EdgeAck);
            });
        return;
    }
    cloud_.network().send_uplink_wired(
        device, server, trip->bytes,
        [this, trip](sim::Time t1) { invoke_stages(trip, t1); });
}

void
ShardedScenarioEngine::invoke_stages(FrameTrip* trip, sim::Time t1)
{
    trip->t1 = t1;
    cloud::InvokeRequest rec;
    rec.app = pipe_.rec_app;
    rec.work_core_ms = pipe_.rec_work_ms;
    rec.memory_mb = pipe_.memory_mb;
    rec.input_bytes = pipe_.inter_bytes;
    rec.output_bytes = pipe_.inter_bytes;
    rec.recovery = sc_.recovery;
    const int par = hivemind() ? pipe_.parallelism : 1;
    cloud_.invoke(rec, par, [this, trip](const CloudResult& r1) {
        recognized(trip, r1);
    });
}

void
ShardedScenarioEngine::recognized(FrameTrip* trip, const CloudResult& r1)
{
    if (r1.lost) {
        // No recognition output: the dedup stage has nothing to run
        // on, and the device hears of the loss.
        send_result(trip, r1.done, Reply::Lost);
        return;
    }
    trip->shares.mgmt = r1.mgmt_s;
    trip->shares.data = r1.data_s;
    trip->shares.exec = r1.exec_s;
    if (pipe_.dedup_work_ms <= 0.0) {
        send_result(trip, r1.done, Reply::Result);
        return;
    }
    // Dedup child: HiveMind co-locates it with its parent so the
    // hand-off is in-memory (Sec. 4.3).
    cloud::InvokeRequest dd;
    dd.app = pipe_.dedup_app;
    dd.work_core_ms = pipe_.dedup_work_ms;
    dd.memory_mb = pipe_.memory_mb;
    dd.input_bytes = pipe_.inter_bytes;
    dd.output_bytes = pipe_.result_bytes;
    dd.recovery = sc_.recovery;
    if (opt_.smart_scheduler && r1.server != cloud::kNoServer) {
        dd.preferred_server = r1.server;
        dd.colocate_with_parent = true;
    }
    const int par = hivemind() ? pipe_.parallelism : 1;
    cloud_.invoke(dd, par, [this, trip](const CloudResult& r2) {
        StageShares& s = trip->shares;
        s.mgmt = s.mgmt + r2.mgmt_s;
        s.data = s.data + r2.data_s;
        s.exec = s.exec + r2.exec_s;
        send_result(trip, r2.done, r2.lost ? Reply::Lost : Reply::Result);
    });
}

void
ShardedScenarioEngine::send_result(FrameTrip* trip, sim::Time cloud_done,
                                   Reply reply)
{
    trip->cloud_done = cloud_done;
    trip->reply = reply;
    const std::size_t device = trip->actor->id;
    const std::size_t server = device % cloud_.config().servers;
    const std::uint64_t bytes =
        reply == Reply::Result ? pipe_.result_bytes : kCtrlMsgBytes;
    cloud_.network().send_downlink_wired(
        server, device, bytes,
        [this, trip](sim::Time) { result_downlinked(trip); });
}

void
ShardedScenarioEngine::result_downlinked(FrameTrip* trip)
{
    // Every downlink burns air — the 64-byte DistributedEdge ack
    // included (it hits the device radio ledger too).
    const std::uint64_t bytes =
        trip->reply == Reply::Result ? pipe_.result_bytes : kCtrlMsgBytes;
    air_meter_.add(cloud_.simulator().now(), static_cast<double>(bytes));
    data_down_[trip->actor->id].transfer(
        bytes, sim::InlineFn([this, trip] { on_result(trip); }));
}

// ---------------------------------------------------------------------
// Controller side
// ---------------------------------------------------------------------

void
ShardedScenarioEngine::on_beat(std::size_t device, std::uint32_t inflight,
                               std::uint64_t started, bool rover_finished)
{
    if (ctrl_.down) {
        ++ctrl_.dropped_msgs;
        return;
    }
    ctrl_.alive_known[device] = 1;
    ctrl_.inflight_known[device] = inflight;
    ctrl_.started_known[device] = started;
    if (rover_finished && ctrl_.rover)
        ctrl_.rover_done[device] = 1;
    ctrl_.detector.beat(device);
}

void
ShardedScenarioEngine::on_rover_progress(std::size_t device)
{
    if (ctrl_.down) {
        ++ctrl_.dropped_msgs;
        return;
    }
    if (ctrl_.done)
        return;
    ++ctrl_.reports;
    ctrl_.learning.record(device);  // Each completed leg is feedback.
}

void
ShardedScenarioEngine::on_rover_done(std::size_t device)
{
    if (ctrl_.down) {
        // Lost to the outage; the heartbeat flag re-announces it.
        ++ctrl_.dropped_msgs;
        return;
    }
    ctrl_.rover_done[device] = 1;
}

void
ShardedScenarioEngine::on_report(std::size_t device, geo::Vec2 pos,
                                 sim::Time t0)
{
    if (ctrl_.down) {
        ++ctrl_.dropped_msgs;
        return;
    }
    if (ctrl_.done)
        return;
    ++ctrl_.reports;
    const edge::DeviceSpec& spec = devices_[device]->dev.spec();
    if (ctrl_.items) {
        ctrl_.items->items_in_view(pos, spec.footprint_w, spec.footprint_h,
                                   ctrl_.visible);
    } else {
        // Visibility is judged at capture time: the crowd is evaluated
        // where it stood when the frame was taken, not at report time.
        ctrl_.crowd->people_in_view(t0, pos, spec.footprint_w,
                                    spec.footprint_h, ctrl_.visible);
    }
    const apps::DetectionModel& model = ctrl_.learning.model(device);
    for (std::size_t target : ctrl_.visible) {
        if (ctrl_.rng.chance(model.p_correct())) {
            if (ctrl_.items)
                ctrl_.items->mark_found(target);
            else
                ctrl_.crowd->mark_counted(target);
            ctrl_.learning.record(device);
        }
    }
    ctrl_.learning.record(device);  // Every frame yields feedback.
}

void
ShardedScenarioEngine::on_route_request(std::size_t device)
{
    if (ctrl_.down) {
        ++ctrl_.dropped_msgs;
        return;
    }
    if (ctrl_.done)
        return;
    ctrl_.alive_known[device] = 1;
    if (ctrl_.detector.is_failed(device))
        return;
    if (ctrl_.pass[device] >= sc_.max_passes)
        return;
    if (!ctrl_.balancer.region_of(device))
        return;
    send_route(device);
}

void
ShardedScenarioEngine::send_route(std::size_t device)
{
    if (ctrl_.rover)
        return;  // Rovers carry their own course.
    const edge::DeviceSpec& spec = devices_[device]->dev.spec();
    std::vector<geo::Vec2> route =
        ctrl_.balancer.route_for(device, spec.footprint_w);
    if (route.empty())
        return;
    if (ctrl_.pass[device] % 2 == 1)
        std::reverse(route.begin(), route.end());
    ++ctrl_.pass[device];
    DeviceActor* a = devices_[device].get();
    const std::uint64_t bytes = kCtrlMsgBytes + 16ull * route.size();
    ctrl_down_[device].transfer(
        bytes, sim::InlineFn([a, route = std::move(route)]() mutable {
            if (!a->dev.alive())
                return;  // Dark devices miss their mail.
            a->dev.set_route(std::move(route));
            a->awaiting_route = false;
        }));
}

void
ShardedScenarioEngine::on_device_failed(std::size_t device)
{
    ctrl_.alive_known[device] = 0;
    note_detected(device);
    if (!hivemind() || ctrl_.rover)
        return;  // Rovers own their regions; nothing to repartition.
    // Fig. 10: split the failed device's region among its neighbours
    // and hand the survivors fresh routes.
    for (std::size_t c : ctrl_.balancer.handle_failure(device)) {
        if (ctrl_.alive_known[c])
            send_route(c);
    }
    note_restored(device, /*repartitioned=*/true);
}

void
ShardedScenarioEngine::on_device_recovered(std::size_t device)
{
    ctrl_.alive_known[device] = 1;
    note_restored(device, /*repartitioned=*/false);
    if (!hivemind() || ctrl_.rover)
        return;  // The rejoin hook already re-drives the rover's leg.
    for (std::size_t c : ctrl_.balancer.handle_rejoin(device)) {
        if (ctrl_.alive_known[c])
            send_route(c);
    }
}

// ---------------------------------------------------------------------
// Device-crash MTTD/MTTR ledger (controller shard)
// ---------------------------------------------------------------------

/** The incident with the latest injection at or before @p now. */
DeviceIncident*
ShardedScenarioEngine::incident_at(std::size_t device, sim::Time now)
{
    if (device >= incidents_.size())
        return nullptr;
    std::vector<DeviceIncident>& list = incidents_[device];
    auto it = std::upper_bound(
        list.begin(), list.end(), now,
        [](sim::Time t, const DeviceIncident& i) { return t < i.at; });
    return it == list.begin() ? nullptr : &*std::prev(it);
}

/**
 * The controller flagged @p device dead. The first flag while an injected
 * crash still holds the device down is that incident's detection; a
 * battery death, a crash that already rejoined, or a reconcile that
 * re-finds a flagged device adds nothing.
 */
void
ShardedScenarioEngine::note_detected(std::size_t device)
{
    const sim::Time now = ctrl_.sim->now();
    DeviceIncident* inc = incident_at(device, now);
    if (inc == nullptr || inc->detected ||
        (inc->rejoin >= 0 && now >= inc->rejoin))
        return;
    inc->detected = true;
    device_mttd_.add(sim::to_seconds(now - inc->at));
}

/**
 * The controller restored service around @p device: it repartitioned
 * the device's region away (@p repartitioned) or saw the device live.
 * A detected permanent crash closes at its repartition; a detected
 * transient crash only once the controller sees the device after its
 * rejoin.
 */
void
ShardedScenarioEngine::note_restored(std::size_t device, bool repartitioned)
{
    const sim::Time now = ctrl_.sim->now();
    DeviceIncident* inc = incident_at(device, now);
    if (inc == nullptr || !inc->detected || inc->repaired)
        return;
    const bool permanent = inc->rejoin < 0;
    if (permanent != repartitioned || (!permanent && now < inc->rejoin))
        return;
    inc->repaired = true;
    device_mttr_.add(sim::to_seconds(now - inc->at));
}

// ---------------------------------------------------------------------
// Controller HA (checkpointed hot-standby failover, Sec. 4.6)
// ---------------------------------------------------------------------

core::ControllerCheckpoint
ShardedScenarioEngine::make_checkpoint() const
{
    core::ControllerCheckpoint cp;
    const std::size_t n = devices_.size();
    cp.device_failed.reserve(n);
    for (std::size_t d = 0; d < n; ++d)
        cp.device_failed.push_back(ctrl_.detector.is_failed(d) ? 1 : 0);
    cp.partition = ctrl_.balancer.snapshot();
    cp.inflight.assign(ctrl_.inflight_known.begin(),
                       ctrl_.inflight_known.end());
    cp.tasks_started = 0;
    for (std::uint64_t s : ctrl_.started_known)
        cp.tasks_started += s;
    return cp;
}

core::ReconcileReport
ShardedScenarioEngine::reconcile_after_takeover(
    const core::ControllerCheckpoint& cp)
{
    core::ReconcileReport rep;
    // 1. Replay: the standby's world is the checkpointed partition.
    if (!cp.partition.assignments.empty())
        ctrl_.balancer.restore(cp.partition);
    // 2. Re-register every device and repartition the drift between
    //    checkpoint time and now. Liveness is the controller's last
    //    heard-from roster — the new primary cannot peek across shards
    //    any more than the real one could peek across the air.
    std::vector<std::size_t> changed;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        ++rep.devices_reregistered;
        const bool live = ctrl_.alive_known[d] != 0;
        ctrl_.detector.reconcile(d, live);
        if (live)
            note_restored(d, /*repartitioned=*/false);
        else
            note_detected(d);
        if (ctrl_.rover)
            continue;  // No region drift to repartition for rovers.
        if (live && !ctrl_.balancer.region_of(d)) {
            for (std::size_t c : ctrl_.balancer.handle_rejoin(d))
                changed.push_back(c);
        } else if (!live && ctrl_.balancer.region_of(d)) {
            for (std::size_t c : ctrl_.balancer.handle_failure(d))
                changed.push_back(c);
            note_restored(d, /*repartitioned=*/true);
        }
    }
    rep.regions_repartitioned = changed.size();
    // 3. Redrive: offloads in flight at the checkpoint plus everything
    //    started since its watermark go through the epoch-redrive path.
    std::uint64_t inflight_total = 0;
    for (std::uint32_t c : cp.inflight)
        inflight_total += c;
    std::uint64_t started_now = 0;
    for (std::uint64_t s : ctrl_.started_known)
        started_now += s;
    const std::uint64_t delta = started_now >= cp.tasks_started
        ? started_now - cp.tasks_started
        : 0;
    rep.offloads_redriven = static_cast<std::size_t>(inflight_total + delta);
    // Kick the FaaS queues on the cloud shard (a small RPC, like the
    // redrive control traffic it models).
    ckpt_up_->transfer(kCtrlMsgBytes,
                       sim::InlineFn([this] { cloud_.faas().poke(); }));
    // Refreshed routes for devices whose regions moved.
    for (std::size_t d : changed) {
        if (ctrl_.alive_known[d])
            send_route(d);
    }
    return rep;
}

void
ShardedScenarioEngine::availability_changed(bool up)
{
    ctrl_.down = !up;
    if (!up) {
        // The controller-side detector is blind while no controller
        // runs; reconciliation rebuilds its state on takeover. Devices
        // learn of the outage one control-downlink hop later and drop
        // into degraded local autonomy.
        ctrl_.detector.stop();
        for (std::size_t d = 0; d < devices_.size(); ++d) {
            DeviceActor* a = devices_[d].get();
            ctrl_down_[d].transfer(kCtrlMsgBytes, sim::InlineFn([a] {
                                       if (a->dev.alive())
                                           a->dev.set_degraded(true);
                                   }));
        }
        return;
    }
    ctrl_.detector.start();
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        DeviceActor* a = devices_[d].get();
        ctrl_down_[d].transfer(kCtrlMsgBytes, sim::InlineFn([this, a] {
                                   a->dev.set_degraded(false);
                                   drain_backlog(*a);
                               }));
    }
}

void
ShardedScenarioEngine::controller_tick()
{
    if (ctrl_.done)
        return;
    sim::Time now = ctrl_.sim->now();
    if (!ctrl_.down) {
        if (now - ctrl_.last_retrain >= kRetrainInterval) {
            ctrl_.learning.retrain();
            ctrl_.last_retrain = now;
        }
        if (ctrl_.goal_fraction() >= 1.0) {
            finish(true);
            return;
        }
    }
    bool all_dead = true;
    bool passes_exhausted = true;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        if (ctrl_.alive_known[d]) {
            all_dead = false;
            if (ctrl_.pass[d] < sc_.max_passes)
                passes_exhausted = false;
        }
    }
    ctrl_.dead_ticks = all_dead ? ctrl_.dead_ticks + 1 : 0;
    // An all-dead roster makes passes_exhausted vacuously true; that
    // stop must also wait out the dwell, not sneak past it.
    if (now >= sc_.time_cap || ctrl_.dead_ticks >= kFleetDeadDwellTicks ||
        (!all_dead && passes_exhausted && ctrl_.reports > 0)) {
        finish(false);
    }
}

void
ShardedScenarioEngine::finish(bool goal)
{
    ctrl_.done = true;
    ctrl_.goal = goal;
    ctrl_.completion = ctrl_.sim->now();
    ctrl_.final_goal_fraction = ctrl_.goal_fraction();
    ctrl_.detector.stop();
    if (ha_)
        ha_->stop();
}

// ---------------------------------------------------------------------
// Run + results
// ---------------------------------------------------------------------

RunResult
ShardedScenarioEngine::run()
{
    const auto wall0 = std::chrono::steady_clock::now();
    // Run in exact 1-second slices and test the stop flag only at
    // slice boundaries. Under adaptive per-pair lookahead the epoch
    // sequence is NOT invariant in the shard count, so a between-epoch
    // stop predicate would cut different runs at different points; a
    // boundary-aligned stop is shard-agnostic because every shard
    // runs to the same simulated instant and the first boundary at
    // which `done` holds is a property of the simulation state alone.
    const sim::Time end = sc_.time_cap + 10 * sim::kSecond;
    std::uint64_t epochs = 0;
    std::uint64_t forwarded = 0;
    RunProfile profile;
    profile.shards.resize(static_cast<std::size_t>(runtime_.shards()));
    for (sim::Time t = sim::kSecond;; t += sim::kSecond) {
        const sim::Time slice = t < end ? t : end;
        const sim::SwarmRuntime::Report r = runtime_.run_until(slice);
        epochs += r.epochs;
        forwarded += r.forwarded;
        for (std::size_t i = 0; i < r.shards.size(); ++i) {
            profile.shards[i].busy_s += r.shards[i].busy_s;
            profile.shards[i].events += r.shards[i].events;
        }
        profile.serial_s += r.serial_s;
        if (ctrl_.done || slice == end || runtime_.pending() == 0)
            break;
    }
    const auto wall1 = std::chrono::steady_clock::now();
    if (!ctrl_.done)
        finish(ctrl_.goal_fraction() >= 1.0);

    RunResult result;
    result.metrics = collect_metrics();
    result.checksum = checksum();
    result.audit = build_audit(result.metrics);
    result.audit.checksum = result.checksum;
    result.epochs = epochs;
    result.forwarded = forwarded;
    result.profile = std::move(profile);
    result.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
    result.shards = runtime_.shards();
    result.chaos = chaos_;
    return result;
}

RunMetrics
ShardedScenarioEngine::collect_metrics()
{
    RunMetrics m;
    // A stable sort by device makes each device's results one run of
    // its shard's log, still in completion order. Devices are visited
    // in id order, so each shard's run cursor only moves forward. Each
    // device's shares merge as a per-device summary, as they always
    // have (its partial sums first, then the sum of those).
    for (std::vector<TaskResult>& log : results_) {
        std::stable_sort(log.begin(), log.end(),
                         [](const TaskResult& x, const TaskResult& y) {
                             return x.device < y.device;
                         });
    }
    std::vector<std::size_t> cursor(results_.size(), 0);
    sim::Summary latency, network, mgmt, data, exec;
    for (const auto& ap : devices_) {
        const DeviceActor& a = *ap;
        const auto owner =
            static_cast<std::size_t>(device_shard(a.id, runtime_.shards()));
        const std::vector<TaskResult>& log = results_[owner];
        std::size_t& at = cursor[owner];
        for (sim::Summary* s : {&latency, &network, &mgmt, &data, &exec})
            s->clear();
        for (; at < log.size() && log[at].device == a.id; ++at) {
            const StageShares& r = log[at].shares;
            latency.add(r.total);
            network.add(r.network);
            mgmt.add(r.mgmt);
            data.add(r.data);
            exec.add(r.exec);
        }
        m.task_latency_s.merge(latency);
        m.network_s.merge(network);
        m.mgmt_s.merge(mgmt);
        m.data_s.merge(data);
        m.exec_s.merge(exec);
        m.battery_pct.add(a.dev.battery().consumed_percent());
        if (ctrl_.rover && a.job_done_at >= 0)
            m.job_latency_s.add(a.job_latency_s);
        m.tasks_shed += a.dev.executor().shed();
        m.radio_bytes_total += a.radio_bytes;
        m.tasks_completed += a.completions;
        m.recovery.offload_retries += a.offload_retries;
        m.recovery.offloads_abandoned += a.abandoned;
        m.recovery.circuit_open_events += a.breaker_opens;
        m.recovery.frames_dropped += a.wireless_drops;
        m.recovery.wireless_retransmissions += a.retransmits;
        m.recovery.frames_buffered_degraded += a.frames_buffered;
        m.recovery.buffered_frames_drained += a.buffered_drained;
        m.recovery.outage_tasks_completed += a.outage_completions;
    }
    sim::Summary bw = air_meter_.rate_summary(ctrl_.completion);
    for (double r : bw.samples())
        m.bandwidth_MBps.add(r / 1e6);
    m.cold_starts = cloud_.faas().cold_starts();
    m.warm_starts = cloud_.faas().warm_starts();
    m.faults = cloud_.faas().faults();
    if (cloud_.scheduler())
        m.respawns = cloud_.scheduler()->respawns();
    m.cloud_rpc_cpu_s = cloud_.network().cloud_rpc_cpu_seconds();
    m.completed = ctrl_.goal;
    m.goal_fraction = ctrl_.final_goal_fraction;
    m.completion_s = sim::to_seconds(ctrl_.completion);
    m.detect_correct_pct = 100.0 * ctrl_.learning.swarm_p_correct();
    m.detect_fn_pct = 100.0 * ctrl_.learning.swarm_p_false_negative();
    m.detect_fp_pct = 100.0 * ctrl_.learning.swarm_p_false_positive();
    m.recovery.device_crashes = device_crashes_;
    m.recovery.device_rejoins = device_rejoins_;
    m.recovery.server_crashes = crashed_servers_;
    // Device incidents first, then restored server crashes: one sample
    // order at every shard count. Reported only, like the FaaS loss
    // ledger below; the checksum never reads them.
    m.recovery.mttd_s = device_mttd_;
    m.recovery.mttr_s = device_mttr_;
    m.recovery.mttr_s.merge(server_mttr_);
    // The FaaS side of a server crash. Reported only: the checksum
    // already pins the cloud history through the start and fault
    // counters.
    m.recovery.killed_invocations = cloud_.faas().killed_invocations();
    m.recovery.work_lost_core_ms = cloud_.faas().work_lost_core_ms();
    m.recovery.reexecuted_core_ms = cloud_.faas().reexecuted_core_ms();
    m.recovery.datastore_outages = datastore_outages_;
    m.recovery.partitions = partitions_;
    // Fire-time count, not how many windows the router accepted: a
    // burst past the stop point never opened.
    m.recovery.link_burst_windows = link_bursts_fired_;
    m.recovery.controller_crashes = ctrl_.crashes;
    m.recovery.controller_partitions = ctrl_partitions_;
    if (ha_) {
        m.recovery.controller_mttd_s = ha_->detect_s();
        m.recovery.controller_mttr_s = ha_->recover_s();
        m.recovery.checkpoint_age_s = ha_->checkpoint_age_s();
        m.recovery.checkpoints_taken = ha_->checkpoints_taken();
        m.recovery.checkpoint_bytes = ha_->checkpoint_bytes();
        m.recovery.tasks_redriven_on_failover = ha_->offloads_redriven();
        m.recovery.controller_outage_s = ha_->unavailable_seconds();
        m.recovery.controller_failovers = ha_->failovers();
    }
    return m;
}

fault::RunAudit
ShardedScenarioEngine::build_audit(const RunMetrics& m) const
{
    fault::RunAudit audit;
    audit.shards = runtime_.shards();
    audit.seed = cloud_.config().seed;
    audit.devices = devices_.size();
    audit.servers = cloud_.config().servers;
    audit.horizon = sc_.time_cap;
    audit.completion = ctrl_.completion;
    // The stop predicate is sampled at epoch boundaries and the finish
    // lands on a 1 Hz controller tick, so events within one second of
    // the stop may or may not have fired.
    audit.completion_margin = sim::kSecond;
    audit.completed = ctrl_.goal;
    audit.ha_enabled = ha_ != nullptr;
    const core::HaConfig ha = ha_config();
    audit.ha_standbys = ha.standbys;
    audit.checkpoint_interval_s = sim::to_seconds(ha.checkpoint_interval);
    audit.breaker_cooldown_s =
        sim::to_seconds(fault::RetryConfig{}.breaker_cooldown);
    audit.configured_loss = cloud_.network().config().wireless_loss;
    audit.plan = sc_.faults;
    audit.recovery = m.recovery;
    for (const auto& ap : devices_) {
        const DeviceActor& a = *ap;
        audit.frames.generated += a.frames;
        audit.frames.delivered += a.completions;
        audit.frames.dropped += a.abandoned;
        audit.frames.inflight_end += a.inflight;
        audit.frames.buffered += a.frames_buffered;
        audit.frames.dropped_onboard += a.dev.frames_dropped_onboard();
        audit.frames.drained += a.buffered_drained;
        audit.frames.drain_lost += a.drain_lost;
        audit.frames.drain_inflight_end += a.drain_inflight;
        audit.frames.buffered_end += a.dev.buffered_frames();
        fault::DeviceEndState end;
        end.alive = a.dev.alive();
        end.battery_dead = a.dev.battery().depleted();
        end.breaker_open = a.retrier.circuit_open(ctrl_.completion);
        end.buffered = a.dev.buffered_frames();
        audit.device_end.push_back(end);
    }
    return audit;
}

std::uint64_t
ShardedScenarioEngine::checksum() const
{
    // Device-id order, then controller and cloud digests: every key is
    // shard-agnostic, so this is the quantity the invariance tests
    // compare across shard counts.
    std::uint64_t cs = fnv::kBasis;
    for (const auto& ap : devices_) {
        const DeviceActor& a = *ap;
        mix(cs, a.frames);
        mix(cs, a.completions);
        mix(cs, a.wireless_drops);
        mix(cs, a.retransmits);
        mix(cs, a.offload_retries);
        mix(cs, a.abandoned);
        mix(cs, a.breaker_opens);
        mix(cs, a.radio_bytes);
        mix(cs, a.frames_buffered);
        mix(cs, a.buffered_drained);
        mix(cs, a.drain_lost);
        mix(cs, a.drain_inflight);
        mix(cs, a.outage_completions);
        mix(cs, a.dev.buffered_frames());
        mix(cs, a.dev.frames_dropped_onboard());
        mix(cs, a.dev.degraded() ? 1 : 0);
        mix(cs, a.dev.alive() ? 1 : 0);
        mix(cs, bits(a.dev.battery().consumed_percent()));
        mix(cs, bits(a.latency_sum));
        mix(cs, bits(a.network_sum));
        mix(cs, bits(a.exec_sum));
        geo::Vec2 pos = a.dev.position_at(ctrl_.completion);
        mix(cs, bits(pos.x));
        mix(cs, bits(pos.y));
        mix(cs, static_cast<std::uint64_t>(
                    ctrl_.pass[a.id] >= 0 ? ctrl_.pass[a.id] : 0));
        if (ctrl_.rover) {
            mix(cs, static_cast<std::uint64_t>(a.rover_leg));
            mix(cs, a.job_done_at >= 0 ? 1u : 0u);
            mix(cs, bits(a.job_latency_s));
            mix(cs, a.rover_gen);
        }
    }
    mix(cs, ctrl_.reports);
    mix(cs, ctrl_.dropped_msgs);
    mix(cs, ctrl_.takeovers);
    mix(cs, ctrl_.crashes);
    mix(cs, ctrl_partitions_);
    mix(cs, link_bursts_fired_);
    if (ha_) {
        // Every HA quantity below is event-driven (no wall-time
        // reads), so it is safe under the invariance contract.
        mix(cs, ha_->failovers());
        mix(cs, ha_->checkpoints_taken());
        mix(cs, ha_->checkpoint_bytes());
        mix(cs, ha_->offloads_redriven());
        mix(cs, bits(ha_->detect_s().sum()));
        mix(cs, bits(ha_->recover_s().sum()));
        mix(cs, bits(ha_->checkpoint_age_s().sum()));
        mix(cs, ckpt_up_->bytes_total());
        mix(cs, ckpt_down_->bytes_total());
        mix(cs, ckpt_writes_lost_);
    }
    mix(cs, ctrl_.world_digest());
    mix(cs, bits(ctrl_.learning.swarm_p_correct()));
    mix(cs, ctrl_.detector.failed_count());
    mix(cs, corrupt_frames_);
    mix(cs, cloud_.faas().cold_starts());
    mix(cs, cloud_.faas().warm_starts());
    mix(cs, cloud_.faas().faults());
    mix(cs, bits(cloud_.network().cloud_rpc_cpu_seconds()));
    mix(cs, bits(sim::to_seconds(ctrl_.completion)));
    return cs;
}

}  // namespace

RunResult
run_scenario_sharded(const ScenarioConfig& scenario,
                     const PlatformOptions& options,
                     const DeploymentConfig& deployment_config,
                     int runtime_shards)
{
    // The HA stack is HiveMind's controller (Sec. 4.7); the baselines
    // have no model of losing theirs.
    if (options.kind != PlatformKind::HiveMind &&
        plan_has_controller_faults(scenario.faults))
        throw std::invalid_argument(
            "controller faults need the HiveMind platform's HA stack; " +
            options.label + " has no controller failover model");
    ShardedScenarioEngine engine(scenario, options, deployment_config,
                                 runtime_shards < 1 ? 1 : runtime_shards);
    return engine.run();
}

}  // namespace hivemind::platform
