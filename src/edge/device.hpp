#pragma once

/**
 * @file
 * Edge device models: drones and robotic cars.
 *
 * The drone preset mirrors the Parrot AR 2.0 testbed of Sec. 2.1:
 * a 1 GHz 32-bit ARM Cortex A8 (modeled as a 0.12x cloud-core speed
 * factor), 4 m/s flight speed, a camera with a 6.7 m x 8.75 m ground
 * footprint, and 802.11 connectivity. The camera's frame rate and
 * frame size (8 fps x 2 MB, Sec. 2.1) live with the workloads that
 * send the frames: platform::PipelineSpec's payload per recognition
 * task and the scenario engine's task rate. The rover preset mirrors
 * the Raspberry Pi cars of Sec. 5.5 (slower motion, larger battery,
 * faster SoC). A device follows a waypoint route, produces camera
 * frames, and runs tasks on a single-core on-board executor whose
 * busy time feeds the battery model.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "edge/battery.hpp"
#include "geo/vec2.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hivemind::edge {

/** Static description of a device class; the defaults are the drone. */
struct DeviceSpec
{
    std::string kind = "drone";
    /** Cruise speed, m/s. */
    double speed_mps = 4.0;
    /** On-board CPU speed relative to a reference cloud core. */
    double cpu_speed_factor = 0.12;
    /** Usable battery capacity, J (the drone's ~16.6 Wh pack). */
    double battery_j = 60'000.0;
    /** Power draws. */
    PowerModel power;
    /** Camera ground footprint, meters (cross-track x along-track). */
    double footprint_w = 6.7;
    double footprint_h = 8.75;
    /** On-board task queue bound; older tasks are shed beyond this. */
    std::size_t queue_limit = 64;
    /** Sensor frames bufferable on-board while disconnected (Sec. 4.6). */
    std::size_t frame_buffer_limit = 256;

    /** The Parrot AR 2.0 drone of the paper's main testbed: the
     *  defaults above. */
    static DeviceSpec drone();

    /** The Raspberry Pi robotic car of Sec. 5.5. */
    static DeviceSpec rover();
};

/**
 * Single-core on-board executor with a bounded FIFO queue.
 *
 * Edge devices execute one task at a time; when sensor tasks arrive
 * faster than they complete, the oldest queued tasks are shed (sensor
 * data goes stale). Busy time is reported for energy accounting.
 */
class OnboardExecutor
{
  public:
    OnboardExecutor(sim::Simulator& simulator, sim::Rng& rng,
                    double cpu_speed_factor, std::size_t queue_limit);

    /** Completion callback: the task latency in seconds. */
    using Done = sim::InlineFunction<void(double)>;

    /**
     * Run @p work_core_ms (reference-core milliseconds) on the device
     * CPU; @p done fires at completion with the task latency in
     * seconds. Tasks shed due to queue overflow never call back.
     */
    void submit(double work_core_ms, Done done);

    /** Total CPU-busy seconds (feeds compute energy). */
    double busy_seconds() const { return busy_seconds_; }

    /** Tasks shed because the queue was full. */
    std::uint64_t shed() const { return shed_; }

    /** Tasks completed. */
    std::uint64_t completed() const { return completed_; }

    /** Queue length including the running task. */
    std::size_t depth() const { return queued_ + (running_ ? 1 : 0); }

  private:
    struct Pending
    {
        double work_core_ms;
        Done done;
        sim::Time submit;
    };

    void maybe_run();

    /** The running task's completion event fired. */
    void task_done();

    /** Queued task @p i, oldest first. */
    Pending& queued(std::size_t i)
    {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

    sim::Simulator* simulator_;
    sim::Rng rng_;
    double speed_factor_;
    std::size_t queue_limit_;
    /**
     * The FIFO queue as a ring whose power-of-two capacity grows to
     * the deepest backlog seen (at most queue_limit_), so steady-state
     * submits allocate nothing.
     */
    std::vector<Pending> ring_;
    std::size_t head_ = 0;
    std::size_t queued_ = 0;
    /** The task on the core; its completion event captures `this`. */
    Pending task_{};
    bool running_ = false;
    double busy_seconds_ = 0.0;
    std::uint64_t shed_ = 0;
    std::uint64_t completed_ = 0;
};

/** One edge device: kinematics, camera, battery, on-board executor. */
class Device
{
  public:
    Device(sim::Simulator& simulator, sim::Rng& rng, std::size_t id,
           const DeviceSpec& spec);

    std::size_t id() const { return id_; }
    const DeviceSpec& spec() const { return spec_; }
    Battery& battery() { return battery_; }
    const Battery& battery() const { return battery_; }
    OnboardExecutor& executor() { return executor_; }
    const OnboardExecutor& executor() const { return executor_; }

    /** Assign a waypoint route; motion starts at the current time. */
    void set_route(std::vector<geo::Vec2> route);

    /** Position at time @p t (clamped to route endpoints). */
    geo::Vec2 position_at(sim::Time t) const;

    /** Simulated time at which the current route completes. */
    sim::Time route_complete_at() const { return route_end_; }

    /** Whether the route has been fully flown at @p t. */
    bool route_done(sim::Time t) const { return t >= route_end_; }

    /** Seconds of motion needed for the current route. */
    double route_duration_s() const;

    /** Charge motion energy for @p seconds of flight/drive. */
    void account_motion(double seconds);

    /** Charge radio energy for @p bytes sent or received. */
    void account_radio(std::uint64_t bytes);

    /** Charge compute energy for @p seconds of CPU busy time. */
    void account_compute(double seconds);

    /** Charge idle electronics for @p seconds. */
    void account_idle(double seconds);

    /** Mark the device failed (crash / power loss); stops heartbeats. */
    void set_failed(bool failed) { failed_ = failed; }
    bool failed() const { return failed_; }

    /** Whether the device can still operate. */
    bool alive() const { return !failed_ && !battery_.depleted(); }

    // --- Degraded-mode local autonomy (Sec. 4.6) ---
    // While no controller is reachable the device falls back to
    // on-board control: it keeps flying locally-derived waypoints and
    // buffers sensor frames instead of offloading them, draining the
    // buffer once a controller is back.

    /** Enter/leave on-board local control. */
    void set_degraded(bool on) { degraded_ = on; }
    bool degraded() const { return degraded_; }

    /**
     * Buffer one sensor frame of @p bytes on-board.
     * @return false when the (bounded) buffer is full — the frame is
     *         dropped and counted in frames_dropped_onboard().
     */
    bool buffer_frame(std::uint64_t bytes);

    std::uint64_t buffered_frames() const { return buffered_frames_; }
    std::uint64_t buffered_bytes() const { return buffered_bytes_; }
    std::uint64_t frames_dropped_onboard() const { return frames_dropped_; }

    /** Drained buffer contents on reconnect. */
    struct DrainedFrames
    {
        std::uint64_t frames = 0;
        std::uint64_t bytes = 0;
    };

    /** Take (and clear) the buffered frames for uplink. */
    DrainedFrames drain_buffered();

    /**
     * Local waypoint continuation: with no controller to hand out a
     * fresh route, re-fly the just-finished route in reverse so the
     * device keeps covering its last-known region instead of freezing.
     * @return false when there is no route to continue (device holds
     *         position).
     */
    bool resume_route_reversed();

  private:
    sim::Simulator* simulator_;
    std::size_t id_;
    DeviceSpec spec_;
    Battery battery_;
    OnboardExecutor executor_;
    std::vector<geo::Vec2> route_;
    std::vector<double> cum_dist_;  // Cumulative distance at waypoint i.
    sim::Time route_start_ = 0;
    sim::Time route_end_ = 0;
    bool failed_ = false;
    bool degraded_ = false;
    std::uint64_t buffered_frames_ = 0;
    std::uint64_t buffered_bytes_ = 0;
    std::uint64_t frames_dropped_ = 0;
};

}  // namespace hivemind::edge
