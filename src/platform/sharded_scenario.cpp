#include "platform/sharded_scenario.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
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
#include "sim/swarm_runtime.hpp"

namespace hivemind::platform {

namespace {

using fnv::bits;
using fnv::mix;

constexpr std::uint64_t kCtrlMsgBytes = 64;
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

/** Stage shares of one completed frame. */
struct StageShares
{
    double total = 0.0;
    double network = 0.0;
    double mgmt = 0.0;
    double data = 0.0;
    double exec = 0.0;
};

/**
 * One edge device actor. Everything here is owned by — and only ever
 * touched from — the device's owner shard, except during wiring and
 * the single-threaded post-run metric sweep.
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

    // Per-frame state awaiting the cloud round trip.
    struct PendingFrame
    {
        sim::Time t0 = 0;         ///< Capture time.
        sim::Time t1_edge = 0;    ///< On-board stage done (edge kinds).
        double edge_exec_s = 0.0; ///< On-board execution share.
        geo::Vec2 pos;            ///< Capture position (for detection).
        std::uint64_t gen = 0;    ///< Rover leg generation at capture.
    };
    std::map<std::uint64_t, PendingFrame> pending;
    std::uint64_t next_frame = 0;

    // Local result partials, merged in id order after the run.
    sim::Summary task_latency, network_s, mgmt_s, data_s, exec_s;
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
                const edge::DeviceSpec& spec, const fault::RetryConfig& retry)
        : id(d), sim(&shard), rng(seed), dev(shard, rng, d, spec),
          retrier(retry)
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
 * the two flags change on shard 0 only, so each incident yields at
 * most one detection and one repair sample.
 */
struct DeviceIncident
{
    sim::Time at = 0;       ///< Injection.
    sim::Time rejoin = -1;  ///< Scheduled rejoin; -1 = permanent.
    bool detected = false;  ///< MTTD sampled.
    bool repaired = false;  ///< MTTR sampled.
};

/** Controller tier state, pinned to shard 0. */
struct ControllerTier
{
    sim::Simulator* sim;
    sim::Rng rng;  ///< World construction + detection rolls.
    core::SwarmLoadBalancer balancer;
    core::FailureDetector detector;
    core::LearningCoordinator learning;
    std::unique_ptr<apps::ItemField> items;
    std::unique_ptr<apps::CrowdField> crowd;
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
          learning(devices, sc.detection, sc.retrain),
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
          cloud_shard_(shards > 1 ? 1 : 0),
          cloud_rng_(dep.seed ^ 0x5eedc0deull),
          // The radio segment is simulated device-side on the owner
          // shards, so the cloud topology only carries the wired legs
          // and needs no loss RNG.
          cloud_(runtime_.shard(cloud_shard_), cloud_rng_, dep, opt,
                 nullptr),
          ctrl_(runtime_.shard(0), sc, dep.devices, dep.seed ^ 0x5ca1ab1eull)
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
    void launch_frame(DeviceActor& a, std::uint64_t frame);
    void offload(DeviceActor& a, std::uint64_t frame, std::uint64_t bytes,
                 int attempt);
    void air_attempt(DeviceActor& a, std::uint64_t frame,
                     std::uint64_t bytes, int attempt, int tries_left);
    void air_failed(DeviceActor& a, std::uint64_t frame,
                    std::uint64_t bytes, int attempt);
    void on_result(DeviceActor& a, std::uint64_t frame,
                   const StageShares& cloud_shares, sim::Time t1,
                   sim::Time cloud_done, bool edge_ack);
    void drain_backlog(DeviceActor& a);
    void drain_attempt(DeviceActor& a, std::uint64_t bytes,
                       std::uint64_t frames, int tries_left);

    // --- Rover leg state machine (owner shards) ---
    void rover_begin_leg(DeviceActor& a);
    void rover_sense(DeviceActor& a);
    void rover_retry(DeviceActor& a);

    // --- Cloud side (cloud shard) ---
    void cloud_ingress(std::size_t device, std::uint64_t frame,
                       std::uint64_t bytes);
    void invoke_stages(std::size_t device, std::uint64_t frame,
                       std::size_t server, sim::Time t1);
    void send_result(std::size_t device, std::uint64_t frame,
                     const StageShares& shares, sim::Time t1,
                     sim::Time cloud_done, bool edge_ack);

    // --- Controller side (shard 0) ---
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

    // --- Device-crash MTTD/MTTR ledger (shard 0) ---
    DeviceIncident* incident_at(std::size_t device, sim::Time now);
    void note_detected(std::size_t device);
    void note_restored(std::size_t device, bool repartitioned);

    // --- Controller HA (shard 0, checkpoint RPCs to the cloud shard) ---
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
    int cloud_shard_;
    sim::Rng cloud_rng_;  ///< The cloud tier's stream (cloud shard).
    CloudTier cloud_;
    // Air-side ledger, metered on the cloud shard.
    sim::RateMeter air_meter_{sim::kSecond};
    std::uint64_t corrupt_frames_ = 0;
    ControllerTier ctrl_;
    std::vector<std::unique_ptr<DeviceActor>> devices_;
    /** Per-shard device rosters (ascending id) for the 1 Hz tick. */
    std::vector<std::vector<std::size_t>> tick_groups_;
    std::vector<net::ShardLink> data_up_, data_down_, ctrl_up_, ctrl_down_;
    fault::ShardChaosReport chaos_;
    std::uint64_t server_crashes_ = 0;
    std::uint64_t datastore_outages_ = 0;
    std::uint64_t partitions_ = 0;
    std::uint64_t device_crashes_ = 0;
    std::uint64_t device_rejoins_ = 0;
    std::uint64_t ctrl_partitions_ = 0;
    std::uint64_t link_bursts_fired_ = 0;  ///< Windows actually opened.

    // Crash ledger. Device incidents are indexed by device id (empty
    // when the plan crashes no device) and sampled on shard 0; the
    // restored server crashes' down times accrue on the cloud shard.
    std::vector<std::vector<DeviceIncident>> incidents_;
    sim::Summary device_mttd_, device_mttr_;
    sim::Summary server_mttr_;

    // Controller HA: the cluster lives on shard 0, its checkpoints on
    // the cloud shard's DataStore, reached over a dedicated ShardLink
    // plane so checkpoint traffic is metered like everything else.
    std::unique_ptr<core::HaCluster> ha_;
    std::unique_ptr<net::ShardLink> ckpt_up_, ckpt_down_;
    std::unique_ptr<sim::Rng> ckpt_rng_;  ///< Shard-0 write-loss rolls.
    std::uint64_t ckpt_writes_lost_ = 0;
};

void
ShardedScenarioEngine::wire_devices(const DeploymentConfig& dep)
{
    const std::size_t n = dep.devices;
    const net::TopologyConfig& net = dep.net;
    devices_.reserve(n);
    data_up_.reserve(n);
    data_down_.reserve(n);
    ctrl_up_.reserve(n);
    ctrl_down_.reserve(n);
    for (std::size_t d = 0; d < n; ++d) {
        const int owner = runtime_.owner_of(d);
        sim::Simulator& shard = runtime_.shard(owner);
        devices_.push_back(std::make_unique<DeviceActor>(
            shard, dep.seed ^ (0x9e3779b97f4a7c15ull * (d + 1)), d,
            dep.device_spec, sc_.retry));
        DeviceActor* a = devices_.back().get();
        a->configured_loss = net.wireless_loss;
        // Data plane to/from the cloud shard; control plane to/from
        // shard 0. All four share the radio's propagation delay, which
        // doubles as the declared channel lookahead.
        data_up_.emplace_back(runtime_, owner, cloud_shard_,
                              kDataUpOrigin + d, net.device_radio_bps,
                              net.wireless_prop);
        data_down_.emplace_back(runtime_, cloud_shard_, owner,
                                kDataDownOrigin + d, net.device_radio_bps,
                                net.wireless_prop);
        ctrl_up_.emplace_back(runtime_, owner, 0, kCtrlUpOrigin + d,
                              net.device_radio_bps, net.wireless_prop);
        ctrl_down_.emplace_back(runtime_, 0, owner, kCtrlDownOrigin + d,
                                net.device_radio_bps, net.wireless_prop);
    }
    for (std::size_t d = 0; d < n; ++d) {
        DeviceActor* a = devices_[d].get();
        a->data_up = &data_up_[d];
        a->ctrl_up = &ctrl_up_[d];
    }

    // 1 Hz housekeeping: energy accounting, heartbeat, route asks —
    // one wheel event per shard per tick, sweeping that shard's
    // devices in ascending id so equal-time tick order never depends
    // on the shard count. Wired before the Poisson processes below so
    // same-time ties resolve tick-first on every shard count.
    tick_groups_.resize(static_cast<std::size_t>(runtime_.shards()));
    for (std::size_t d = 0; d < n; ++d)
        tick_groups_[static_cast<std::size_t>(runtime_.owner_of(d))]
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
                    a->rng.exponential(1.0 / sc_.frame_task_rate_hz)));
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
                    a->rng.exponential(1.0 / sc_.obstacle_rate_hz)));
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
    const net::TopologyConfig& net = dep.net;
    // The checkpoint plane shares the radio propagation so it never
    // tightens the declared lookahead below the existing channels.
    ckpt_up_ = std::make_unique<net::ShardLink>(
        runtime_, 0, cloud_shard_, kCkptUpOrigin, kCkptLinkBps,
        net.wireless_prop);
    ckpt_down_ = std::make_unique<net::ShardLink>(
        runtime_, cloud_shard_, 0, kCkptDownOrigin, kCkptLinkBps,
        net.wireless_prop);
    ckpt_rng_ = std::make_unique<sim::Rng>(dep.seed ^ 0xc4ec9017ull);

    ha_ = std::make_unique<core::HaCluster>(*ctrl_.sim, nullptr, sc_.ha);
    // Checkpoint writes ride the RPC plane to the cloud DataStore and
    // commit on shard 0 once the ack returns; a write lost on the
    // plane simply never becomes durable (the next interval retries).
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
        cloud_.faas().crash_server(s, 0);
        ++server_crashes_;
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
        [this](std::size_t d) { return runtime_.owner_of(d); }, hooks,
        cloud_shard_);
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
    const std::uint32_t inflight =
        static_cast<std::uint32_t>(a.pending.size());
    const std::uint64_t started = a.frames;
    // Rovers piggyback their finished flag on the beat: a completion
    // note lost to a dead controller is re-announced every second, so
    // the goal roster converges once a controller is back.
    const bool finished = ctrl_.rover && a.job_done_at >= 0;
    a.ctrl_up->transfer(kCtrlMsgBytes,
                        sim::InlineFn([this, d, inflight, started, finished] {
                            on_beat(d, inflight, started, finished);
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
    const std::uint64_t frame = ++a.next_frame;
    ++a.frames;
    sim::Time t0 = a.sim->now();
    DeviceActor::PendingFrame p;
    p.t0 = t0;
    p.pos = a.dev.position_at(t0);
    a.pending.emplace(frame, p);
    launch_frame(a, frame);
}

/** Platform-kind dispatch for a just-captured frame (drone or rover). */
void
ShardedScenarioEngine::launch_frame(DeviceActor& a, std::uint64_t frame)
{
    if (opt_.kind == PlatformKind::DistributedEdge) {
        // Everything on-board; only the final result is uplinked.
        double total_work = pipe_.rec_work_ms + pipe_.dedup_work_ms;
        a.dev.executor().submit(
            total_work, [this, ap = &a, frame](double exec_s) {
                auto it = ap->pending.find(frame);
                if (it == ap->pending.end())
                    return;
                it->second.edge_exec_s = exec_s;
                it->second.t1_edge = ap->sim->now();
                offload(*ap, frame, pipe_.result_bytes, 0);
            });
        return;
    }
    if (hivemind()) {
        // On-board pre-filter, then the reduced candidate stream.
        double pre_work = pipe_.rec_work_ms * 0.10;
        a.dev.executor().submit(
            pre_work, [this, ap = &a, frame](double pre_exec_s) {
                auto it = ap->pending.find(frame);
                if (it == ap->pending.end())
                    return;
                it->second.edge_exec_s = pre_exec_s;
                double raw = static_cast<double>(pipe_.frame_bytes);
                double reduced = 4.0 * 1024.0 * 1024.0 + 0.02 * raw;
                offload(*ap, frame,
                        static_cast<std::uint64_t>(std::min(raw, reduced)),
                        0);
            });
        return;
    }
    // Centralized (FaaS or IaaS): full frame uplink.
    offload(a, frame, pipe_.frame_bytes, 0);
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
    const std::uint64_t frame = ++a.next_frame;
    ++a.frames;
    sim::Time t0 = a.sim->now();
    DeviceActor::PendingFrame p;
    p.t0 = t0;
    p.pos = a.dev.position_at(t0);
    p.gen = a.rover_gen;
    a.pending.emplace(frame, p);
    launch_frame(a, frame);
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
ShardedScenarioEngine::offload(DeviceActor& a, std::uint64_t frame,
                               std::uint64_t bytes, int attempt)
{
    if (a.retrier.circuit_open(a.sim->now())) {
        // Breaker open: fail fast; the device sits out its probation
        // window instead of queueing radio traffic (Sec. 4.6).
        ++a.abandoned;
        a.pending.erase(frame);
        if (ctrl_.rover)
            rover_retry(a);  // The leg is not done; re-sense later.
        return;
    }
    a.radio_bytes += bytes;  // Radio energy per offload attempt.
    air_attempt(a, frame, bytes, attempt,
                cloud_.config().net.max_retransmits);
}

void
ShardedScenarioEngine::air_attempt(DeviceActor& a, std::uint64_t frame,
                                   std::uint64_t bytes, int attempt,
                                   int tries_left)
{
    const double loss = a.loss_now();
    const sim::Time timeout = cloud_.config().net.retransmit_timeout;
    if (loss >= 1.0) {
        // Radio blackout: nothing reaches the air; each retry burns a
        // retransmit timeout until the budget is gone.
        if (tries_left <= 0) {
            ++a.wireless_drops;
            air_failed(a, frame, bytes, attempt);
            return;
        }
        ++a.retransmits;
        a.sim->schedule_in(timeout, [this, ap = &a, frame, bytes, attempt,
                                     tries_left] {
            air_attempt(*ap, frame, bytes, attempt, tries_left - 1);
        });
        return;
    }
    const bool corrupt = loss > 0.0 && a.rng.chance(loss);
    const std::size_t d = a.id;
    if (corrupt) {
        // The transfer still occupies the serializer and the air — it
        // arrives as garbage, counted cloud-side, and is retried one
        // timeout after that arrival (the sender learns of the loss no
        // earlier). The final attempt drops like any other lossy one.
        sim::Time arrival = a.data_up->transfer(
            bytes, sim::InlineFn([this] { ++corrupt_frames_; }));
        if (tries_left <= 0) {
            ++a.wireless_drops;
            air_failed(a, frame, bytes, attempt);
            return;
        }
        ++a.retransmits;
        a.sim->schedule_at(arrival + timeout,
                           [this, ap = &a, frame, bytes, attempt,
                            tries_left] {
                               air_attempt(*ap, frame, bytes, attempt,
                                           tries_left - 1);
                           });
        return;
    }
    a.retrier.record_success();
    a.data_up->transfer(bytes, sim::InlineFn([this, d, frame, bytes] {
                            cloud_ingress(d, frame, bytes);
                        }));
}

void
ShardedScenarioEngine::air_failed(DeviceActor& a, std::uint64_t frame,
                                  std::uint64_t bytes, int attempt)
{
    sim::Time now = a.sim->now();
    if (a.retrier.record_failure(now))
        ++a.breaker_opens;
    if (attempt + 1 >= a.retrier.config().max_attempts ||
        a.retrier.circuit_open(now)) {
        ++a.abandoned;
        a.pending.erase(frame);
        if (ctrl_.rover)
            rover_retry(a);  // The leg is not done; re-sense later.
        return;
    }
    ++a.offload_retries;
    a.sim->schedule_in(a.retrier.backoff(attempt, a.rng),
                       [this, ap = &a, frame, bytes, attempt] {
                           offload(*ap, frame, bytes, attempt + 1);
                       });
}

void
ShardedScenarioEngine::on_result(DeviceActor& a, std::uint64_t frame,
                                 const StageShares& cloud_shares,
                                 sim::Time t1, sim::Time cloud_done,
                                 bool edge_ack)
{
    auto it = a.pending.find(frame);
    if (it == a.pending.end())
        return;
    DeviceActor::PendingFrame p = it->second;
    a.pending.erase(it);

    StageShares r;
    if (edge_ack) {
        // DistributedEdge: t1 is the result's arrival at the cloud.
        a.radio_bytes += kCtrlMsgBytes;  // The ack burns radio too.
        r.total = sim::to_seconds(t1 - p.t0);
        r.network = sim::to_seconds(t1 - p.t1_edge);
        r.exec = p.edge_exec_s;
        double q = sim::to_seconds(p.t1_edge - p.t0) - p.edge_exec_s;
        r.mgmt = q > 0.0 ? q : 0.0;
    } else {
        sim::Time t3 = a.sim->now();
        a.radio_bytes += pipe_.result_bytes;  // Downlink radio energy.
        r.total = sim::to_seconds(t3 - p.t0);
        r.network = sim::to_seconds(t1 - p.t0) - p.edge_exec_s +
            sim::to_seconds(t3 - cloud_done);
        if (r.network < 0.0)
            r.network = 0.0;
        r.mgmt = cloud_shares.mgmt;
        r.data = cloud_shares.data;
        r.exec = cloud_shares.exec + p.edge_exec_s;
    }
    a.task_latency.add(r.total);
    a.network_s.add(r.network);
    a.mgmt_s.add(r.mgmt);
    a.data_s.add(r.data);
    a.exec_s.add(r.exec);
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
    const geo::Vec2 pos = p.pos;
    const sim::Time t0 = p.t0;
    a.ctrl_up->transfer(kCtrlMsgBytes, sim::InlineFn([this, d, pos, t0] {
                            on_report(d, pos, t0);
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
    double raw = static_cast<double>(pipe_.frame_bytes);
    double reduced = std::min(raw, 4.0 * 1024.0 * 1024.0 + 0.02 * raw);
    const std::uint64_t bytes = static_cast<std::uint64_t>(
        reduced * static_cast<double>(backlog.frames));
    a.radio_bytes += bytes;
    a.drain_inflight += backlog.frames;
    drain_attempt(a, bytes, backlog.frames,
                  cloud_.config().net.max_retransmits);
}

void
ShardedScenarioEngine::drain_attempt(DeviceActor& a, std::uint64_t bytes,
                                     std::uint64_t frames, int tries_left)
{
    const double loss = a.loss_now();
    const sim::Time timeout = cloud_.config().net.retransmit_timeout;
    if (loss > 0.0 && (loss >= 1.0 || a.rng.chance(loss))) {
        if (tries_left <= 0) {
            ++a.wireless_drops;  // Backlog lost on the air.
            a.drain_lost += frames;
            a.drain_inflight -= frames;
            return;
        }
        ++a.retransmits;
        a.sim->schedule_in(timeout,
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
ShardedScenarioEngine::cloud_ingress(std::size_t device,
                                     std::uint64_t frame,
                                     std::uint64_t bytes)
{
    air_meter_.add(cloud_.simulator().now(), static_cast<double>(bytes));
    const std::size_t server = device % cloud_.config().servers;
    if (opt_.kind == PlatformKind::DistributedEdge) {
        // The on-board result only needs ingesting; the ack carries
        // its cloud arrival time back for the latency books.
        cloud_.network().send_uplink_wired(
            device, server, bytes, [this, device, frame](sim::Time t2) {
                send_result(device, frame, {}, t2, t2, true);
            });
        return;
    }
    cloud_.network().send_uplink_wired(
        device, server, bytes, [this, device, frame, server](sim::Time t1) {
            invoke_stages(device, frame, server, t1);
        });
}

void
ShardedScenarioEngine::invoke_stages(std::size_t device,
                                     std::uint64_t frame,
                                     std::size_t server, sim::Time t1)
{
    cloud::InvokeRequest rec;
    rec.app = pipe_.rec_app;
    rec.work_core_ms = pipe_.rec_work_ms;
    rec.memory_mb = pipe_.memory_mb;
    rec.input_bytes = pipe_.inter_bytes;
    rec.output_bytes = pipe_.inter_bytes;
    rec.recovery = sc_.recovery;
    const int par = hivemind() ? pipe_.parallelism : 1;
    cloud_.invoke(rec, par, [this, device, frame, server, t1,
                             par](const CloudResult& r1) {
        if (pipe_.dedup_work_ms <= 0.0) {
            StageShares s;
            s.mgmt = r1.mgmt_s;
            s.data = r1.data_s;
            s.exec = r1.exec_s;
            send_result(device, frame, s, t1, r1.done, false);
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
        cloud_.invoke(dd, par,
                      [this, device, frame, t1, r1](const CloudResult& r2) {
                          StageShares s;
                          s.mgmt = r1.mgmt_s + r2.mgmt_s;
                          s.data = r1.data_s + r2.data_s;
                          s.exec = r1.exec_s + r2.exec_s;
                          send_result(device, frame, s, t1, r2.done, false);
                      });
        (void)server;
    });
}

void
ShardedScenarioEngine::send_result(std::size_t device, std::uint64_t frame,
                                   const StageShares& shares, sim::Time t1,
                                   sim::Time cloud_done, bool edge_ack)
{
    const std::size_t server = device % cloud_.config().servers;
    const std::uint64_t bytes =
        edge_ack ? kCtrlMsgBytes : pipe_.result_bytes;
    cloud_.network().send_downlink_wired(
        server, device,
        bytes, [this, device, frame, shares, t1, cloud_done, edge_ack,
                bytes](sim::Time) {
            // Every downlink burns air — the 64-byte DistributedEdge
            // ack included (it hits the device radio ledger too).
            air_meter_.add(cloud_.simulator().now(),
                                 static_cast<double>(bytes));
            DeviceActor* a = devices_[device].get();
            data_down_[device].transfer(
                bytes, sim::InlineFn([this, a, frame, shares, t1, cloud_done,
                                      edge_ack] {
                    on_result(*a, frame, shares, t1, cloud_done, edge_ack);
                }));
        });
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
    std::vector<std::size_t> visible;
    if (ctrl_.items) {
        visible = ctrl_.items->items_in_view(pos, spec.footprint_w,
                                             spec.footprint_h);
    } else {
        // Visibility is judged at capture time: the crowd is evaluated
        // where it stood when the frame was taken, not at report time.
        visible = ctrl_.crowd->people_in_view(t0, pos,
                                              spec.footprint_w,
                                              spec.footprint_h);
    }
    const apps::DetectionModel& model = ctrl_.learning.model(device);
    for (std::size_t target : visible) {
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
// Device-crash MTTD/MTTR ledger (shard 0)
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
 * Shard 0 flagged @p device dead. The first flag while an injected
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
 * Shard 0 restored service around @p device: it repartitioned the
 * device's region away (@p repartitioned) or saw the device live. A
 * detected permanent crash closes at its repartition; a detected
 * transient crash only once shard 0 sees the device after its rejoin.
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
        if (now - ctrl_.last_retrain >= sc_.retrain_interval) {
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
    sim::SwarmRuntime::Report report;
    for (sim::Time t = sim::kSecond;; t += sim::kSecond) {
        const sim::Time slice = t < end ? t : end;
        const sim::SwarmRuntime::Report r = runtime_.run_until(slice);
        report.epochs += r.epochs;
        report.executed += r.executed;
        report.forwarded += r.forwarded;
        report.horizon = r.horizon;
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
    result.epochs = report.epochs;
    result.forwarded = report.forwarded;
    result.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
    result.shards = runtime_.shards();
    result.chaos = chaos_;
    return result;
}

RunMetrics
ShardedScenarioEngine::collect_metrics()
{
    RunMetrics m;
    for (const auto& ap : devices_) {
        const DeviceActor& a = *ap;
        m.task_latency_s.merge(a.task_latency);
        m.network_s.merge(a.network_s);
        m.mgmt_s.merge(a.mgmt_s);
        m.data_s.merge(a.data_s);
        m.exec_s.merge(a.exec_s);
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
    m.recovery.server_crashes = server_crashes_;
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
    audit.ha_standbys = sc_.ha.standbys;
    audit.checkpoint_interval_s = sim::to_seconds(sc_.ha.checkpoint_interval);
    audit.breaker_cooldown_s = sim::to_seconds(sc_.retry.breaker_cooldown);
    audit.configured_loss = cloud_.config().net.wireless_loss;
    audit.plan = sc_.faults;
    audit.recovery = m.recovery;
    for (const auto& ap : devices_) {
        const DeviceActor& a = *ap;
        audit.frames.generated += a.frames;
        audit.frames.delivered += a.completions;
        audit.frames.dropped += a.abandoned;
        audit.frames.inflight_end += a.pending.size();
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
        mix(cs, bits(a.task_latency.sum()));
        mix(cs, bits(a.network_s.sum()));
        mix(cs, bits(a.exec_s.sum()));
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
