#include "platform/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "apps/world.hpp"
#include "core/heartbeat.hpp"
#include "core/learning.hpp"
#include "core/load_balancer.hpp"
#include "fault/chaos.hpp"
#include "geo/maze.hpp"
#include "platform/fnv.hpp"
#include "platform/pipeline_spec.hpp"
#include "platform/sharded_scenario.hpp"

namespace hivemind::platform {

const char*
to_string(ScenarioKind k)
{
    switch (k) {
      case ScenarioKind::StationaryItems:
        return "Scenario A (Stationary Items)";
      case ScenarioKind::MovingPeople:
        return "Scenario B (Moving People)";
      case ScenarioKind::TreasureHunt:
        return "Treasure Hunt";
      case ScenarioKind::RoverMaze:
        return "Maze";
    }
    return "?";
}

namespace {

// The fleet must look fully dead for this many consecutive 1 Hz ticks
// before the mission aborts. A single all-dead reading can race a
// rejoin already scheduled a beat later (the fuzzer found this in the
// sharded engine; the legacy tick had the same instant-abort bug).
constexpr int kFleetDeadDwellTicks = 3;

/** Per-task stage shares handed back by the pipelines. */
struct StageRecord
{
    double total = 0.0;
    double network = 0.0;
    double mgmt = 0.0;
    double data = 0.0;
    double exec = 0.0;
    /** The offload never completed (partition / breaker / blackout). */
    bool dropped = false;
};

/**
 * Shared state of one scenario run. The harness lives on the stack of
 * run_scenario(); all simulator callbacks reference it and only run
 * inside simulator.run_until().
 */
class ScenarioHarness
{
  public:
    ScenarioHarness(Deployment& dep, const ScenarioConfig& sc)
        : dep_(&dep),
          sc_(&sc),
          rng_(dep.rng().fork()),
          chaos_(dep.simulator(), dep.rng(), effective_plan(sc)),
          retrier_(dep.device_count(), sc.retry),
          balancer_(
              geo::Rect{0.0, 0.0, sc.field_size_m, sc.field_size_m},
              dep.device_count()),
          detector_(dep.simulator(), dep.device_count()),
          learning_(dep.device_count(), sc.detection, sc.retrain),
          pass_(dep.device_count(), 0),
          moving_until_(dep.device_count(), 0),
          compute_settled_(dep.device_count(), 0.0),
          done_at_(dep.device_count(), -1),
          rover_cur_leg_(dep.device_count(), 0),
          rover_gen_(dep.device_count(), 0),
          inflight_(dep.device_count(), 0)
    {
        pipeline_ = pipeline_for(sc.kind, sc.frame_bytes_override);

        chaos_.attach_devices(
            dep.device_count(),
            [this](std::size_t d, bool failed) {
                dep_->device(d).set_failed(failed);
                if (is_drone_scenario())
                    return;
                // A crash strands the rover mid-leg and goes stale on
                // every in-flight continuation; a rejoin re-drives the
                // interrupted leg (drones get re-routed by the
                // detector instead — rovers have no detector here).
                ++rover_gen_[d];
                if (!failed && !done_ && done_at_[d] < 0)
                    rover_leg(d, rover_cur_leg_[d]);
            },
            [this](std::size_t d) {
                return dep_->device(d).position_at(dep_->simulator().now());
            });
        chaos_.attach_network(dep.network());
        chaos_.attach_faas(dep.faas());
        chaos_.attach_datastore(dep.store());

        // Controller HA (Sec. 4.6): checkpointed hot-standby failover
        // plus degraded-mode edge autonomy. Only instantiated when the
        // run can actually lose its swarm controller, so every other
        // run replays bit-identically to the pre-HA code.
        if (hivemind() &&
            (sc.ha.enabled || plan_has_controller_faults(chaos_.plan()))) {
            core::HaConfig hc = sc.ha;
            hc.enabled = true;
            ha_ = std::make_unique<core::HaCluster>(dep.simulator(),
                                                    &dep.store(), hc);
            ha_->set_snapshot([this]() { return make_checkpoint(); });
            ha_->set_on_takeover(
                [this](const core::ControllerCheckpoint& cp) {
                    return reconcile_after_takeover(cp);
                });
            ha_->set_on_availability(
                [this](bool up) { availability_changed(up); });
            ha_->set_on_detected(
                [this]() { chaos_.note_controller_detected(); });
            ha_->set_on_restored([this](double checkpoint_age_s) {
                chaos_.note_controller_restored(checkpoint_age_s);
            });
            chaos_.attach_controller([this](const fault::FaultEvent& e) {
                if (e.kind == fault::FaultKind::ControllerCrash)
                    ha_->crash_active();
                else
                    ha_->partition(e.duration);
            });
        }
    }

    void run();

    RunMetrics take_metrics();

    /** Fill the oracle ledger; call after take_metrics(). */
    fault::RunAudit build_audit(const RunMetrics& m) const;

  private:
    bool is_drone_scenario() const
    {
        return sc_->kind == ScenarioKind::StationaryItems ||
            sc_->kind == ScenarioKind::MovingPeople;
    }

    bool hivemind() const
    {
        return dep_->options().kind == PlatformKind::HiveMind;
    }

    /** No swarm controller reachable (crash/partition window open). */
    bool controller_down() const { return ha_ && !ha_->available(); }

    // --- Controller HA (Sec. 4.6) ---
    core::ControllerCheckpoint make_checkpoint() const;
    core::ReconcileReport
    reconcile_after_takeover(const core::ControllerCheckpoint& cp);
    void availability_changed(bool up);

    // --- Common plumbing ---
    void record(const StageRecord& r);
    void finish(bool goal_met);
    void tick();

    /** Run the recognition (+dedup) pipeline on the platform. */
    void pipeline(std::size_t device,
                  std::function<void(const StageRecord&)> done);

    /**
     * Uplink with exponential-backoff retries and a per-device circuit
     * breaker. @p done receives the delivery time, or net::kDropped
     * once attempts are exhausted or the breaker is open.
     */
    void uplink_with_retry(std::size_t device, std::uint64_t bytes,
                           net::DeliveryCallback done, int attempt = 0);

    // --- Drone scenarios ---
    void setup_drones();
    void start_pass(std::size_t device);
    void frame_task(std::size_t device);
    void obstacle_task(std::size_t device);
    double goal_fraction() const;
    bool goal_met() const;

    // --- Rover scenarios ---
    void setup_rovers();
    void rover_leg(std::size_t device, std::size_t leg);
    void rover_sense(std::size_t device, std::size_t leg);

    Deployment* dep_;
    const ScenarioConfig* sc_;
    sim::Rng rng_;
    fault::ChaosEngine chaos_;
    fault::OffloadRetrier retrier_;
    core::SwarmLoadBalancer balancer_;
    core::FailureDetector detector_;
    core::LearningCoordinator learning_;
    std::unique_ptr<core::HaCluster> ha_;
    PipelineSpec pipeline_;
    RunMetrics metrics_;

    std::unique_ptr<apps::ItemField> items_;
    std::unique_ptr<apps::CrowdField> crowd_;
    std::vector<apps::TreasureHunt> courses_;
    std::vector<std::size_t> maze_steps_;

    std::vector<int> pass_;
    std::vector<sim::Time> moving_until_;
    std::vector<double> compute_settled_;
    std::vector<sim::Time> done_at_;  // Rover finish times (-1 = active).
    std::vector<std::size_t> rover_cur_leg_;  // Leg under way per rover.
    /**
     * Bumped on every chaos crash AND rejoin: in-flight drive
     * arrivals, sense retries and pipeline round trips carry the
     * generation they were issued under and go stale when it moves,
     * so a resumed leg never races its pre-crash continuations.
     */
    std::vector<std::uint64_t> rover_gen_;
    sim::Time last_retrain_ = 0;
    int dead_ticks_ = 0;  // Consecutive all-dead 1 Hz readings.
    bool done_ = false;
    sim::Time completion_ = 0;
    // Controller task-graph bookkeeping (checkpointed by the HA stack).
    std::vector<std::uint32_t> inflight_;
    std::uint64_t tasks_started_ = 0;
    std::uint64_t outage_completed_ = 0;
    // Frame-conservation ledger terms (fault::FrameLedger): every
    // started pipeline frame settles as completed, dropped or
    // in-flight, and every drained backlog as delivered, lost or still
    // in the air.
    std::uint64_t frames_dropped_ = 0;
    std::uint64_t drain_lost_ = 0;
    std::uint64_t drain_inflight_ = 0;
};

void
ScenarioHarness::record(const StageRecord& r)
{
    if (r.dropped)
        return;  // Abandoned offloads are counted where they drop.
    metrics_.task_latency_s.add(r.total);
    metrics_.network_s.add(r.network);
    metrics_.mgmt_s.add(r.mgmt);
    metrics_.data_s.add(r.data);
    metrics_.exec_s.add(r.exec);
    ++metrics_.tasks_completed;
    if (controller_down())
        ++outage_completed_;  // Goodput inside the outage window.
}

void
ScenarioHarness::uplink_with_retry(std::size_t device, std::uint64_t bytes,
                                   net::DeliveryCallback done, int attempt)
{
    sim::Simulator& simulator = dep_->simulator();
    if (retrier_.circuit_open(device, simulator.now())) {
        // Breaker open: fail fast instead of queueing radio traffic —
        // the device sits out its probation window (Sec. 4.6).
        ++metrics_.recovery.offloads_abandoned;
        simulator.schedule_in(
            0, [done = std::move(done)]() { done(net::kDropped); });
        return;
    }
    dep_->network().send_uplink(
        device, device % dep_->config().servers, bytes,
        [this, device, bytes, attempt,
         done = std::move(done)](sim::Time t) mutable {
            if (t >= 0) {
                retrier_.record_success(device);
                done(t);
                return;
            }
            sim::Time now = dep_->simulator().now();
            if (retrier_.record_failure(device, now))
                ++metrics_.recovery.circuit_open_events;
            if (attempt + 1 >= retrier_.config().max_attempts ||
                retrier_.circuit_open(device, now)) {
                ++metrics_.recovery.offloads_abandoned;
                done(net::kDropped);
                return;
            }
            ++metrics_.recovery.offload_retries;
            dep_->simulator().schedule_in(
                retrier_.backoff(attempt, rng_),
                [this, device, bytes, attempt,
                 done = std::move(done)]() mutable {
                    uplink_with_retry(device, bytes, std::move(done),
                                      attempt + 1);
                });
        });
}

void
ScenarioHarness::pipeline(std::size_t device,
                          std::function<void(const StageRecord&)> done)
{
    sim::Simulator& simulator = dep_->simulator();
    sim::Time t0 = simulator.now();
    PlatformKind kind = dep_->options().kind;

    if (controller_down()) {
        // The offload path routes through the (dead) controller: fail
        // fast so callers apply their degraded-mode fallbacks.
        simulator.schedule_in(0, [done = std::move(done)]() {
            StageRecord r;
            r.dropped = true;
            done(r);
        });
        return;
    }
    // Task-graph bookkeeping the HA checkpoint captures; the wrapper
    // settles the in-flight count on every completion path.
    ++tasks_started_;
    if (device < inflight_.size())
        ++inflight_[device];
    done = [this, device, inner = std::move(done)](const StageRecord& r) {
        if (device < inflight_.size() && inflight_[device] > 0)
            --inflight_[device];
        if (r.dropped)
            ++frames_dropped_;  // Settled: abandoned, not in-flight.
        inner(r);
    };

    if (kind == PlatformKind::DistributedEdge) {
        // Everything on-board; only the final result is uplinked.
        edge::Device& dev = dep_->device(device);
        double total_work =
            pipeline_.rec_work_ms + pipeline_.dedup_work_ms;
        dev.executor().submit(
            total_work, [this, device, t0,
                         done = std::move(done)](double exec_s) {
                sim::Time t1 = dep_->simulator().now();
                uplink_with_retry(
                    device, pipeline_.result_bytes,
                    [this, t0, t1, exec_s,
                     done = std::move(done)](sim::Time t2) {
                        StageRecord r;
                        if (t2 < 0) {
                            r.dropped = true;
                            done(r);
                            return;
                        }
                        r.total = sim::to_seconds(t2 - t0);
                        r.network = sim::to_seconds(t2 - t1);
                        r.exec = exec_s;
                        double q = sim::to_seconds(t1 - t0) - exec_s;
                        r.mgmt = q > 0.0 ? q : 0.0;
                        done(r);
                    });
            });
        return;
    }

    // Cloud-involving paths share the tail: recognition (+ dedup) in
    // the cloud, result downlink, stage accounting.
    auto cloud_tail = [this, device, t0](
                          sim::Time uplink_done, double edge_exec_s,
                          std::function<void(const StageRecord&)> cb) {
        std::size_t server = device % dep_->config().servers;
        cloud::InvokeRequest rec;
        rec.app = pipeline_.rec_app;
        rec.work_core_ms = pipeline_.rec_work_ms;
        rec.memory_mb = pipeline_.memory_mb;
        rec.input_bytes = pipeline_.inter_bytes;
        rec.output_bytes = pipeline_.inter_bytes;
        rec.recovery = sc_->recovery;
        int par = hivemind() ? pipeline_.parallelism : 1;
        dep_->cloud_invoke(rec, par, [this, device, server, t0, uplink_done,
                                      edge_exec_s, par,
                                      cb = std::move(cb)](
                                         const CloudResult& r1) {
            auto after_stages = [this, device, server, t0, uplink_done,
                                 edge_exec_s,
                                 cb = std::move(cb)](double mgmt, double data,
                                                     double exec,
                                                     sim::Time cloud_done) {
                dep_->network().send_downlink(
                    server, device, pipeline_.result_bytes,
                    [this, t0, uplink_done, edge_exec_s, mgmt, data, exec,
                     cloud_done, cb = std::move(cb)](sim::Time t3) {
                        StageRecord r;
                        if (t3 < 0) {
                            // Result stranded behind a partition: the
                            // work ran but never reached the device.
                            ++metrics_.recovery.offloads_abandoned;
                            r.dropped = true;
                            cb(r);
                            return;
                        }
                        r.total = sim::to_seconds(t3 - t0);
                        r.network = sim::to_seconds(uplink_done - t0) -
                            edge_exec_s + sim::to_seconds(t3 - cloud_done);
                        if (r.network < 0.0)
                            r.network = 0.0;
                        r.mgmt = mgmt;
                        r.data = data;
                        r.exec = exec + edge_exec_s;
                        cb(r);
                    });
            };
            if (pipeline_.dedup_work_ms <= 0.0) {
                after_stages(r1.mgmt_s, r1.data_s, r1.exec_s, r1.done);
                return;
            }
            // Dedup child: HiveMind co-locates it with its parent so
            // the hand-off is in-memory (Sec. 4.3).
            cloud::InvokeRequest dd;
            dd.app = pipeline_.dedup_app;
            dd.work_core_ms = pipeline_.dedup_work_ms;
            dd.memory_mb = pipeline_.memory_mb;
            dd.input_bytes = pipeline_.inter_bytes;
            dd.output_bytes = pipeline_.result_bytes;
            dd.recovery = sc_->recovery;
            if (dep_->options().smart_scheduler &&
                r1.server != cloud::kNoServer) {
                dd.preferred_server = r1.server;
                dd.colocate_with_parent = true;
            }
            dep_->cloud_invoke(
                dd, par,
                [r1, after_stages = std::move(after_stages)](
                    const CloudResult& r2) {
                    after_stages(r1.mgmt_s + r2.mgmt_s,
                                 r1.data_s + r2.data_s,
                                 r1.exec_s + r2.exec_s, r2.done);
                });
        });
    };

    if (hivemind()) {
        // Hybrid: the on-board pre-filter forwards candidate crops
        // plus a thin resolution-dependent context stream, so the
        // uplink grows only marginally with the raw camera rate
        // (Fig. 17a: 8 MB @ 32 fps does not saturate the links).
        edge::Device& dev = dep_->device(device);
        double pre_work = pipeline_.rec_work_ms * 0.10;
        dev.executor().submit(
            pre_work,
            [this, device, cloud_tail = std::move(cloud_tail),
             done = std::move(done)](double pre_exec_s) mutable {
                double raw = static_cast<double>(pipeline_.frame_bytes);
                double reduced = 4.0 * 1024.0 * 1024.0 + 0.02 * raw;
                std::uint64_t bytes = static_cast<std::uint64_t>(
                    std::min(raw, reduced));
                uplink_with_retry(
                    device, bytes,
                    [cloud_tail = std::move(cloud_tail), pre_exec_s,
                     done = std::move(done)](sim::Time t1) mutable {
                        if (t1 < 0) {
                            StageRecord r;
                            r.dropped = true;
                            done(r);
                            return;
                        }
                        cloud_tail(t1, pre_exec_s, std::move(done));
                    });
            });
        return;
    }

    // Centralized (FaaS or IaaS): full frame uplink.
    uplink_with_retry(
        device, pipeline_.frame_bytes,
        [cloud_tail = std::move(cloud_tail),
         done = std::move(done)](sim::Time t1) mutable {
            if (t1 < 0) {
                StageRecord r;
                r.dropped = true;
                done(r);
                return;
            }
            cloud_tail(t1, 0.0, std::move(done));
        });
}

// ---------------------------------------------------------------------
// Drone scenarios (A and B)
// ---------------------------------------------------------------------

void
ScenarioHarness::setup_drones()
{
    if (sc_->kind == ScenarioKind::StationaryItems) {
        items_ = std::make_unique<apps::ItemField>(
            geo::Rect{0.0, 0.0, sc_->field_size_m, sc_->field_size_m},
            sc_->targets, rng_);
    } else {
        crowd_ = std::make_unique<apps::CrowdField>(
            geo::Rect{0.0, 0.0, sc_->field_size_m, sc_->field_size_m},
            sc_->targets, 1.4, rng_);
    }

    if (hivemind()) {
        detector_.set_on_failure([this](std::size_t device) {
            chaos_.note_detected(device);
            // Fig. 10: split the failed device's region among its
            // neighbours and rebuild their routes.
            std::vector<std::size_t> changed =
                balancer_.handle_failure(device);
            for (std::size_t d : changed) {
                if (dep_->device(d).alive())
                    start_pass(d);
            }
            // Service restored by repartition; a transient crash keeps
            // its incident open inside the engine until the rejoin.
            chaos_.note_repaired(device);
        });
        detector_.set_on_recovery([this](std::size_t device) {
            // The device rejoined: carve it a region back out of the
            // widest survivor's strip and restart both sweeps.
            std::vector<std::size_t> changed =
                balancer_.handle_rejoin(device);
            for (std::size_t d : changed) {
                if (dep_->device(d).alive())
                    start_pass(d);
            }
            chaos_.note_repaired(device);
        });
        detector_.start();
    }

    for (std::size_t d = 0; d < dep_->device_count(); ++d) {
        start_pass(d);
        // Frame-driven recognition tasks.
        sim::recurring(
            dep_->simulator(), sim::from_seconds(rng_.uniform(0.0, 1.0)),
            [this, d](const sim::Recur& self) {
                if (done_)
                    return;
                edge::Device& dev = dep_->device(d);
                if (dev.alive() && !detector_.is_failed(d))
                    frame_task(d);
                self.again_in(sim::from_seconds(
                    rng_.exponential(1.0 / sc_->frame_task_rate_hz)));
            });

        // Obstacle avoidance always runs on-board (Sec. 2.1).
        sim::recurring(
            dep_->simulator(), sim::from_seconds(rng_.uniform(0.0, 0.5)),
            [this, d](const sim::Recur& self) {
                if (done_)
                    return;
                if (dep_->device(d).alive())
                    obstacle_task(d);
                self.again_in(sim::from_seconds(
                    rng_.exponential(1.0 / sc_->obstacle_rate_hz)));
            });
    }
}

void
ScenarioHarness::start_pass(std::size_t device)
{
    edge::Device& dev = dep_->device(device);
    std::vector<geo::Vec2> route =
        balancer_.route_for(device, dev.spec().footprint_w);
    if (route.empty())
        return;
    if (pass_[device] % 2 == 1)
        std::reverse(route.begin(), route.end());
    ++pass_[device];
    dev.set_route(std::move(route));
    moving_until_[device] = dev.route_complete_at();
}

void
ScenarioHarness::frame_task(std::size_t device)
{
    edge::Device& dev = dep_->device(device);
    if (controller_down()) {
        // Degraded mode: keep sensing, buffer the frame on-board and
        // drain it once a controller is reachable again (Sec. 4.6).
        if (dev.buffer_frame(pipeline_.frame_bytes))
            ++metrics_.recovery.frames_buffered_degraded;
        return;
    }
    geo::Vec2 pos = dev.position_at(dep_->simulator().now());
    std::vector<std::size_t> visible;
    if (items_) {
        visible = items_->items_in_view(pos, dev.spec().footprint_w,
                                        dev.spec().footprint_h);
    } else if (crowd_) {
        visible = crowd_->people_in_view(dep_->simulator().now(), pos,
                                         dev.spec().footprint_w,
                                         dev.spec().footprint_h);
    }
    pipeline(device, [this, device, visible](const StageRecord& r) {
        record(r);
        if (r.dropped)
            return;  // The frames never made it; no detections.
        const apps::DetectionModel& model = learning_.model(device);
        for (std::size_t target : visible) {
            if (rng_.chance(model.p_correct())) {
                if (items_)
                    items_->mark_found(target);
                else if (crowd_)
                    crowd_->mark_counted(target);
                learning_.record(device);
            }
        }
        learning_.record(device);  // Every frame yields feedback.
    });
}

void
ScenarioHarness::obstacle_task(std::size_t device)
{
    // S4-style work, always on-board, kept off the latency books —
    // it is part of flight control, not the application pipeline.
    dep_->device(device).executor().submit(18.0 * 0.55, nullptr);
}

// ---------------------------------------------------------------------
// Controller HA: checkpointing, takeover reconciliation, degraded mode
// ---------------------------------------------------------------------

core::ControllerCheckpoint
ScenarioHarness::make_checkpoint() const
{
    core::ControllerCheckpoint cp;
    std::size_t n = dep_->device_count();
    cp.device_failed.reserve(n);
    for (std::size_t d = 0; d < n; ++d)
        cp.device_failed.push_back(detector_.is_failed(d) ? 1 : 0);
    cp.partition = balancer_.snapshot();
    cp.inflight.assign(inflight_.begin(), inflight_.end());
    cp.tasks_started = tasks_started_;
    return cp;
}

core::ReconcileReport
ScenarioHarness::reconcile_after_takeover(const core::ControllerCheckpoint& cp)
{
    core::ReconcileReport rep;
    // 1. Replay: the standby's world is the checkpointed partition.
    if (!cp.partition.assignments.empty())
        balancer_.restore(cp.partition);
    // 2. Re-register every device and repartition the drift between
    //    checkpoint time and now (deaths/rejoins the dead primary
    //    never processed).
    std::vector<std::size_t> changed;
    for (std::size_t d = 0; d < dep_->device_count(); ++d) {
        ++rep.devices_reregistered;
        bool live = dep_->device(d).alive();
        detector_.reconcile(d, live);
        if (live && !balancer_.region_of(d)) {
            for (std::size_t c : balancer_.handle_rejoin(d))
                changed.push_back(c);
        } else if (!live && balancer_.region_of(d)) {
            // Found dead during re-registration: this is the detection
            // instant for crashes that happened while we were blind.
            chaos_.note_detected(d);
            for (std::size_t c : balancer_.handle_failure(d))
                changed.push_back(c);
            chaos_.note_repaired(d);
        }
    }
    rep.regions_repartitioned = changed.size();
    // 3. Redrive: offloads in flight at the checkpoint plus everything
    //    started since its watermark go through the epoch-redrive path.
    std::uint64_t inflight_total = 0;
    for (std::uint32_t c : cp.inflight)
        inflight_total += c;
    std::uint64_t delta = tasks_started_ >= cp.tasks_started
        ? tasks_started_ - cp.tasks_started
        : 0;
    rep.offloads_redriven =
        static_cast<std::size_t>(inflight_total + delta);
    metrics_.recovery.tasks_redriven_on_failover += rep.offloads_redriven;
    dep_->faas().poke();
    // Refreshed routes for devices whose regions moved.
    if (is_drone_scenario()) {
        for (std::size_t d : changed) {
            if (dep_->device(d).alive())
                start_pass(d);
        }
    }
    return rep;
}

void
ScenarioHarness::availability_changed(bool up)
{
    bool drone = hivemind() && is_drone_scenario();
    if (!up) {
        // The controller-side detector is blind while no controller
        // runs; reconciliation rebuilds its state on takeover.
        if (drone)
            detector_.stop();
        for (std::size_t d = 0; d < dep_->device_count(); ++d) {
            if (dep_->device(d).alive())
                dep_->device(d).set_degraded(true);
        }
        return;
    }
    if (drone)
        detector_.start();
    for (std::size_t d = 0; d < dep_->device_count(); ++d) {
        edge::Device& dev = dep_->device(d);
        dev.set_degraded(false);
        edge::Device::DrainedFrames backlog = dev.drain_buffered();
        if (backlog.frames == 0)
            continue;
        if (!dev.alive()) {
            // The buffer already gave the frames up; the device died
            // before the drain could start — book them as lost.
            drain_lost_ += backlog.frames;
            continue;
        }
        // Drain the buffered backlog through the pre-filtered uplink
        // (the on-board filter kept running while buffering).
        double raw = static_cast<double>(pipeline_.frame_bytes);
        double reduced =
            std::min(raw, 4.0 * 1024.0 * 1024.0 + 0.02 * raw);
        std::uint64_t bytes = static_cast<std::uint64_t>(
            reduced * static_cast<double>(backlog.frames));
        drain_inflight_ += backlog.frames;
        uplink_with_retry(
            d, bytes, [this, frames = backlog.frames](sim::Time t) {
                drain_inflight_ -= frames;
                if (t >= 0)
                    metrics_.recovery.buffered_frames_drained += frames;
                else
                    drain_lost_ += frames;
            });
    }
}

double
ScenarioHarness::goal_fraction() const
{
    if (items_) {
        return static_cast<double>(items_->found_count()) /
            static_cast<double>(items_->item_count());
    }
    if (crowd_) {
        return static_cast<double>(crowd_->counted_count()) /
            static_cast<double>(crowd_->population());
    }
    // Rover scenarios: fraction of rovers that finished their course.
    std::size_t finished = 0;
    for (sim::Time t : done_at_) {
        if (t >= 0)
            ++finished;
    }
    return done_at_.empty()
        ? 0.0
        : static_cast<double>(finished) /
            static_cast<double>(done_at_.size());
}

bool
ScenarioHarness::goal_met() const
{
    return goal_fraction() >= 1.0;
}

// ---------------------------------------------------------------------
// Rover scenarios
// ---------------------------------------------------------------------

void
ScenarioHarness::setup_rovers()
{
    std::size_t n = dep_->device_count();
    if (sc_->kind == ScenarioKind::TreasureHunt) {
        for (std::size_t d = 0; d < n; ++d) {
            auto region = balancer_.region_of(d);
            courses_.emplace_back(*region,
                                  static_cast<std::size_t>(sc_->course_legs),
                                  rng_);
        }
    } else {
        // Each rover gets its own random maze; steps from the
        // wall-follower trace (S6's algorithm).
        for (std::size_t d = 0; d < n; ++d) {
            geo::Maze maze(sc_->maze_side, sc_->maze_side, rng_);
            auto trace = geo::wall_follow(
                maze, sc_->maze_side - 1, sc_->maze_side - 1,
                static_cast<std::size_t>(sc_->maze_side) *
                    static_cast<std::size_t>(sc_->maze_side) * 8);
            maze_steps_.push_back(trace.size());
        }
    }
    for (std::size_t d = 0; d < n; ++d)
        rover_leg(d, 0);
}

void
ScenarioHarness::rover_leg(std::size_t device, std::size_t leg)
{
    if (done_)
        return;
    edge::Device& dev = dep_->device(device);
    if (!dev.alive())
        return;  // The chaos rejoin hook re-drives the leg (see ctor).
    rover_cur_leg_[device] = leg;

    std::size_t total_legs = sc_->kind == ScenarioKind::TreasureHunt
        ? courses_[device].panel_count()
        : maze_steps_[device];
    if (leg >= total_legs) {
        done_at_[device] = dep_->simulator().now();
        metrics_.job_latency_s.add(sim::to_seconds(done_at_[device]));
        return;
    }

    // Drive to the next panel / through the next cell.
    double dist;
    if (sc_->kind == ScenarioKind::TreasureHunt) {
        geo::Vec2 from = leg == 0 ? balancer_.region_of(device)->center()
                                  : courses_[device].panel(leg - 1);
        dist = from.distance_to(courses_[device].panel(leg));
    } else {
        dist = 1.0;  // One maze cell.
    }
    sim::Time drive = sim::from_seconds(dist / dev.spec().speed_mps);
    moving_until_[device] = dep_->simulator().now() + drive;
    const std::uint64_t gen = rover_gen_[device];
    dep_->simulator().schedule_in(drive, [this, device, leg, gen]() {
        if (done_ || gen != rover_gen_[device] ||
            !dep_->device(device).alive())
            return;
        rover_sense(device, leg);
    });
}

void
ScenarioHarness::rover_sense(std::size_t device, std::size_t leg)
{
    // Photograph the panel / sense the walls, then wait for the
    // processed instructions before moving on.
    const std::uint64_t gen = rover_gen_[device];
    pipeline(device, [this, device, leg, gen](const StageRecord& r) {
        record(r);
        if (done_ || gen != rover_gen_[device] ||
            !dep_->device(device).alive())
            return;
        if (r.dropped) {
            // The instructions never arrived (partition / open breaker
            // / controller outage). The rover is already parked at the
            // panel, so retry the sense after a beat — NOT the whole
            // leg: re-driving would refresh moving_until_ and book
            // motion energy for a rover standing still.
            dep_->simulator().schedule_in(
                sim::kSecond, [this, device, leg, gen]() {
                    if (done_ || gen != rover_gen_[device] ||
                        !dep_->device(device).alive())
                        return;
                    rover_sense(device, leg);
                });
            return;
        }
        learning_.record(device);
        rover_leg(device, leg + 1);
    });
}

// ---------------------------------------------------------------------
// Ticking, completion, energy
// ---------------------------------------------------------------------

void
ScenarioHarness::tick()
{
    if (done_)
        return;
    sim::Simulator& simulator = dep_->simulator();
    sim::Time now = simulator.now();

    dep_->settle_radio_energy();
    // (Legacy inject_failure_at crashes now arrive via the ChaosEngine —
    // see effective_plan().)
    for (std::size_t d = 0; d < dep_->device_count(); ++d) {
        edge::Device& dev = dep_->device(d);
        if (!dev.alive())
            continue;
        bool active = done_at_.empty() || done_at_[d] < 0;
        if (is_drone_scenario()) {
            // Drones hover (full motion power) for the whole mission.
            dev.account_motion(1.0);
        } else if (active && now <= moving_until_[d] + sim::kSecond) {
            dev.account_motion(1.0);
        }
        dev.account_idle(1.0);
        double busy = dev.executor().busy_seconds();
        dev.account_compute(busy - compute_settled_[d]);
        compute_settled_[d] = busy;

        if (dev.battery().depleted()) {
            dev.set_failed(true);  // Heartbeats stop; detector reacts.
        } else if (hivemind() && is_drone_scenario() && !controller_down()) {
            detector_.beat(d);  // Beats cannot reach a dead controller.
        }

        // Sweeping drones start a new pass until the goal is met.
        if (is_drone_scenario() && dev.alive() && dev.route_done(now)) {
            if (controller_down()) {
                // Degraded-mode autonomy (Sec. 4.6): no controller to
                // hand out a fresh route, so retrace the last one
                // locally instead of hovering in place.
                if (dev.degraded())
                    dev.resume_route_reversed();
            } else if (!detector_.is_failed(d) &&
                       pass_[d] < sc_->max_passes && balancer_.region_of(d)) {
                start_pass(d);
            }
        }
    }

    if (now - last_retrain_ >= sc_->retrain_interval) {
        learning_.retrain();
        last_retrain_ = now;
    }

    bool all_dead = true;
    for (std::size_t d = 0; d < dep_->device_count(); ++d) {
        if (dep_->device(d).alive())
            all_dead = false;
    }
    bool passes_exhausted = false;
    if (is_drone_scenario()) {
        passes_exhausted = true;
        for (std::size_t d = 0; d < dep_->device_count(); ++d) {
            if (dep_->device(d).alive() && pass_[d] < sc_->max_passes)
                passes_exhausted = false;
        }
    }

    if (goal_met()) {
        finish(true);
        return;
    }
    // An abort on the first all-dead reading races a rejoin already
    // scheduled a beat later; wait out a short dwell instead. All-dead
    // also makes passes_exhausted vacuously true, so that stop must
    // not sneak past the dwell either.
    dead_ticks_ = all_dead ? dead_ticks_ + 1 : 0;
    if (now >= sc_->time_cap || dead_ticks_ >= kFleetDeadDwellTicks ||
        (!all_dead && passes_exhausted && metrics_.tasks_completed > 0)) {
        finish(false);
        return;
    }
    simulator.schedule_in(sim::kSecond, [this]() { tick(); });
}

void
ScenarioHarness::finish(bool goal)
{
    done_ = true;
    completion_ = dep_->simulator().now();
    metrics_.completed = goal;
    metrics_.goal_fraction = goal_fraction();
    metrics_.completion_s = sim::to_seconds(completion_);
    detector_.stop();
    if (ha_)
        ha_->stop();
    chaos_.stop();
    dep_->simulator().stop();
}

void
ScenarioHarness::run()
{
    if (is_drone_scenario())
        setup_drones();
    else
        setup_rovers();
    if (ha_)
        ha_->start();
    chaos_.start();
    dep_->simulator().schedule_in(sim::kSecond, [this]() { tick(); });
    dep_->simulator().run_until(sc_->time_cap + 10 * sim::kSecond);
    if (!done_)
        finish(goal_met());
}

RunMetrics
ScenarioHarness::take_metrics()
{
    for (std::size_t d = 0; d < dep_->device_count(); ++d) {
        edge::Device& dev = dep_->device(d);
        metrics_.battery_pct.add(dev.battery().consumed_percent());
        metrics_.tasks_shed += dev.executor().shed();
        metrics_.radio_bytes_total += dep_->network().device_bytes(d);
    }
    sim::Summary bw = dep_->network().air_meter().rate_summary(completion_);
    for (double r : bw.samples())
        metrics_.bandwidth_MBps.add(r / 1e6);
    metrics_.cold_starts = dep_->faas().cold_starts();
    metrics_.warm_starts = dep_->faas().warm_starts();
    metrics_.faults = dep_->faas().faults();
    if (dep_->scheduler())
        metrics_.respawns = dep_->scheduler()->respawns();
    metrics_.cloud_rpc_cpu_s = dep_->network().cloud_rpc_cpu_seconds();
    if (ha_) {
        ha_->stop();  // Idempotent; closes any open outage window.
        metrics_.recovery.checkpoints_taken += ha_->checkpoints_taken();
        metrics_.recovery.checkpoint_bytes += ha_->checkpoint_bytes();
        metrics_.recovery.controller_outage_s += ha_->unavailable_seconds();
        metrics_.recovery.outage_tasks_completed += outage_completed_;
    }
    chaos_.stop();  // Idempotent; finalizes the counter pulls.
    metrics_.recovery.merge(chaos_.metrics());
    metrics_.detect_correct_pct = 100.0 * learning_.swarm_p_correct();
    metrics_.detect_fn_pct = 100.0 * learning_.swarm_p_false_negative();
    metrics_.detect_fp_pct = 100.0 * learning_.swarm_p_false_positive();
    return metrics_;
}

fault::RunAudit
ScenarioHarness::build_audit(const RunMetrics& m) const
{
    fault::RunAudit audit;
    audit.engine = "legacy";
    audit.shards = 1;
    audit.seed = dep_->config().seed;
    audit.devices = dep_->device_count();
    audit.servers = dep_->config().servers;
    audit.horizon = sc_->time_cap;
    audit.completion = completion_;
    // The kernel stops dead inside finish(): an event at the same
    // instant with a later sequence number never runs, and nothing
    // after it does either.
    audit.completion_margin = 0;
    audit.completed = m.completed;
    audit.ha_enabled = ha_ != nullptr;
    audit.ha_standbys = sc_->ha.standbys;
    audit.checkpoint_interval_s =
        sim::to_seconds(sc_->ha.checkpoint_interval);
    audit.breaker_cooldown_s = sim::to_seconds(sc_->retry.breaker_cooldown);
    audit.configured_loss = dep_->config().net.wireless_loss;
    audit.plan = effective_plan(*sc_);
    audit.recovery = m.recovery;
    audit.frames.generated = tasks_started_;
    audit.frames.delivered = m.tasks_completed;
    audit.frames.dropped = frames_dropped_;
    for (std::uint32_t c : inflight_)
        audit.frames.inflight_end += c;
    audit.frames.buffered = m.recovery.frames_buffered_degraded;
    audit.frames.drained = m.recovery.buffered_frames_drained;
    audit.frames.drain_lost = drain_lost_;
    audit.frames.drain_inflight_end = drain_inflight_;
    for (std::size_t d = 0; d < dep_->device_count(); ++d) {
        const edge::Device& dev = dep_->device(d);
        audit.frames.dropped_onboard += dev.frames_dropped_onboard();
        audit.frames.buffered_end += dev.buffered_frames();
        fault::DeviceEndState end;
        end.alive = dev.alive();
        end.battery_dead = dev.battery().depleted();
        end.breaker_open = retrier_.circuit_open(d, completion_);
        end.buffered = dev.buffered_frames();
        audit.device_end.push_back(end);
    }
    // The legacy harness has no cross-shard digest; hash the ledger so
    // the determinism oracle still compares same-seed reruns exactly.
    std::uint64_t cs = fnv::kBasis;
    fnv::mix(cs, audit.frames.generated);
    fnv::mix(cs, audit.frames.delivered);
    fnv::mix(cs, audit.frames.dropped);
    fnv::mix(cs, audit.frames.inflight_end);
    fnv::mix(cs, audit.frames.buffered);
    fnv::mix(cs, audit.frames.drained);
    fnv::mix(cs, audit.frames.drain_lost);
    fnv::mix(cs, audit.frames.drain_inflight_end);
    fnv::mix(cs, audit.frames.buffered_end);
    fnv::mix(cs, m.recovery.device_crashes);
    fnv::mix(cs, m.recovery.device_rejoins);
    fnv::mix(cs, m.recovery.controller_crashes);
    fnv::mix(cs, m.recovery.controller_failovers);
    fnv::mix(cs, m.recovery.wireless_retransmissions);
    fnv::mix(cs, m.recovery.offload_retries);
    fnv::mix(cs, m.recovery.offloads_abandoned);
    fnv::mix(cs, fnv::bits(m.task_latency_s.sum()));
    fnv::mix(cs, fnv::bits(m.goal_fraction));
    fnv::mix(cs, fnv::bits(sim::to_seconds(completion_)));
    for (const fault::DeviceEndState& e : audit.device_end) {
        fnv::mix(cs, e.alive ? 1 : 0);
        fnv::mix(cs, e.battery_dead ? 1 : 0);
        fnv::mix(cs, e.breaker_open ? 1 : 0);
        fnv::mix(cs, e.buffered);
    }
    audit.checksum = cs;
    return audit;
}

}  // namespace

fault::FaultPlan
effective_plan(const ScenarioConfig& sc)
{
    fault::FaultPlan plan = sc.faults;
    if (sc.inject_failure_at > 0)
        plan.device_crash(sc.inject_failure_at, sc.inject_failure_device);
    return plan;
}

bool
plan_has_controller_faults(const fault::FaultPlan& plan)
{
    for (const fault::FaultEvent& e : plan.events) {
        if (e.kind == fault::FaultKind::ControllerCrash ||
            e.kind == fault::FaultKind::ControllerPartition)
            return true;
    }
    return false;
}

const char*
to_string(EngineChoice e)
{
    switch (e) {
      case EngineChoice::Auto:
        return "auto";
      case EngineChoice::Legacy:
        return "legacy";
      case EngineChoice::Sharded:
        return "sharded";
    }
    return "?";
}

RunResult
run(const ScenarioConfig& scenario, const PlatformOptions& options,
    const DeploymentConfig& deployment_config)
{
    // The documented environment overrides fold in here — the facade
    // is the options layer's one hook into execution; the engines
    // themselves never consult the environment.
    ScenarioConfig sc = scenario;
    if (env::global_lookahead())
        sc.adaptive_lookahead = false;
    EngineChoice choice = sc.engine;
    if (env::legacy_engine())
        choice = EngineChoice::Legacy;
    // Auto is the sharded engine for every scenario kind (at shards=1
    // too); the legacy harness survives behind EngineChoice::Legacy /
    // HIVEMIND_LEGACY_ENGINE=1 as the parity baseline.
    if (choice == EngineChoice::Auto)
        choice = EngineChoice::Sharded;

    // Reject malformed chaos plans at the facade, before any engine
    // spins up a deployment for them. Horizon is deliberately left
    // unchecked: plans may legitimately outlast time_cap (events past
    // the stop simply never fire).
    fault::PlanBounds bounds;
    bounds.devices = deployment_config.devices;
    bounds.servers = deployment_config.servers;
    effective_plan(sc).validate_or_throw(bounds);

    RunResult out;
    if (choice == EngineChoice::Sharded) {
        const int shards = std::max(sc.shards, 1);
        ShardedScenarioResult r =
            run_scenario_sharded(sc, options, deployment_config, shards);
        out.metrics = std::move(r.metrics);
        out.checksum = r.checksum;
        out.engine_used = EngineChoice::Sharded;
        out.shards_used = shards;
        out.wall_s = r.wall_s;
        out.epochs = r.epochs;
        return out;
    }
    const auto t0 = std::chrono::steady_clock::now();
    Deployment dep(deployment_config, options);
    ScenarioHarness harness(dep, sc);
    harness.run();
    out.metrics = harness.take_metrics();
    out.checksum = harness.build_audit(out.metrics).checksum;
    out.engine_used = EngineChoice::Legacy;
    out.shards_used = 1;
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return out;
}

RunMetrics
run_scenario(const ScenarioConfig& scenario, const PlatformOptions& options,
             const DeploymentConfig& deployment_config)
{
    return run(scenario, options, deployment_config).metrics;
}

AuditedRun
run_scenario_audited(const ScenarioConfig& scenario,
                     const PlatformOptions& options,
                     const DeploymentConfig& deployment_config)
{
    Deployment dep(deployment_config, options);
    ScenarioHarness harness(dep, scenario);
    harness.run();
    AuditedRun out;
    out.metrics = harness.take_metrics();
    out.audit = harness.build_audit(out.metrics);
    return out;
}

}  // namespace hivemind::platform
