#pragma once

/**
 * @file
 * Shared declarations of the repository benchmark (perfbench).
 *
 * The benchmark drives the simulator only through its public entry
 * points: platform::run_scenario_sharded for the Fig. 17-scale
 * missions, platform::Fleet for the mixed fleet, and, in traced runs,
 * the public calls of each layer (Deployment::cloud_invoke,
 * SwarmTopology::send_*_wired, SwarmRuntime::post/run_until,
 * Simulator::run_until) fed with the traffic the workload's own
 * untraced run reported ("layer replays").
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "platform/fleet.hpp"
#include "platform/scenario.hpp"
#include "platform/sharded_scenario.hpp"

namespace perfbench {

namespace hm = hivemind;

/** Steady-clock seconds since an arbitrary epoch. */
double now_s();
/** Process CPU seconds (user + system, all threads). */
double cpu_s();
/** Peak resident set of this process, MiB. */
double peak_rss_mb();
/** CPUs this process may run on (what `nproc` prints). */
int nproc();

/** Median / percentile of a sample (linear interpolation). */
double percentile(std::vector<double> v, double p);
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/**
 * In-memory span recorder. A span is one call from benchmark code into
 * a layer: name ("<layer>.<call>"), start, end, parent span and run
 * id. Spans are only recorded while enabled and only from the main
 * thread. write_chrome() emits Chrome trace-event JSON (loads offline
 * in Perfetto / chrome://tracing); self_time_by_layer() sums each
 * layer's span time minus its child spans.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char* name;
        double start_s;
        double end_s;
        int parent;  ///< Index of the enclosing span, -1 at top level.
        int run;
    };

    void enable(bool on) { enabled_ = on; }
    /** Spans opened from now on carry this run id. */
    void set_run(int run) { run_ = run; }

    /** Open a span; returns its index, or -1 when disabled. */
    int begin(const char* name);
    /** Close span @p id (no-op for -1). */
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Self time (duration minus child spans) summed per layer. */
    std::vector<std::pair<std::string, double>> self_time_by_layer() const;

    /** Write the Chrome trace-event file; false when it cannot. */
    bool write_chrome(const std::string& path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanRecorder& rec, const char* name)
            : rec_(rec), id_(rec.begin(name))
        {
        }
        ~Scope() { rec_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanRecorder& rec_;
        int id_;
    };

  private:
    bool enabled_ = false;
    int run_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** The process-wide recorder. */
SpanRecorder& spans();

/** Attempted / failed operation ledger (one op = one swarm run). */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one failure and report it on stderr. */
    void fail(const std::string& why);
};

// --- Workloads ---------------------------------------------------------

/** One mission: Scenario A at Fig. 17 scale. */
struct MissionSpec
{
    hm::platform::ScenarioConfig scenario;
    hm::platform::DeploymentConfig deployment;
    int shards = 1;
};

/** Platform preset every mission runs. */
inline constexpr const char* kMissionPreset = "hivemind";

/** Fixed mission window, simulated seconds. */
inline constexpr long kMissionSeconds = 5;

/**
 * Worlds (deployment seeds) one mission run cycles through. Host cost
 * per simulated second varies by world (the cold/warm start mix does),
 * so each run reports the mean over several worlds.
 */
inline constexpr int kMissionWorlds = 3;

/** Deployment seed of world @p i for workload seed @p seed (world 0
 *  is @p seed itself). */
std::uint64_t mission_seed(std::uint64_t seed, int i);

/** The swarm8k mission for @p seed at @p shards shard kernels. */
MissionSpec mission_spec(std::uint64_t seed, int shards);

/** The mixed fleet for @p seed (all tenants at shards = 1). */
hm::platform::FleetProfile fleet_profile(std::uint64_t seed);

/** One timed mission call. */
struct MissionRun
{
    hm::platform::ShardedScenarioResult result;
    double call_s = 0.0;  ///< Wall of the whole run_scenario_sharded call.
    bool ok = false;
};

/** Run @p spec once, booking it in @p ledger. */
MissionRun run_mission(const MissionSpec& spec, Ledger& ledger);

// --- Layer replays -----------------------------------------------------

/** The traffic one swarm configuration offered, as its run reported. */
struct Traffic
{
    hm::platform::ScenarioConfig scenario;
    hm::platform::DeploymentConfig deployment;
    std::string preset;
    /** Simulated seconds to replay (whole seconds, >= 1). */
    int sim_seconds = 1;
    /** Frames offloaded per simulated second (tasks_completed rate). */
    double tasks_per_sim_s = 0.0;
};

/** Accumulated results of cloud replays. */
struct CloudReplay
{
    double invoke_s = 0.0;          ///< Host time inside cloud_invoke.
    std::uint64_t invokes = 0;
    double advance_s = 0.0;         ///< run_until time minus invoke time.
    double sim_s = 0.0;
    std::uint64_t events = 0;       ///< Simulator::executed delta.
    double least_loaded_s = 0.0;
    std::uint64_t least_loaded_calls = 0;
    std::uint64_t cold = 0;
    std::uint64_t warm = 0;
    std::uint64_t respawns = 0;
    double pending_sum = 0.0;       ///< Simulator::pending() per second.
    std::uint64_t pending_samples = 0;
};

/** Accumulated results of net replays. */
struct NetReplay
{
    double send_s = 0.0;            ///< Host time inside send_*_wired.
    std::uint64_t sends = 0;
    double advance_s = 0.0;
    double sim_s = 0.0;
    std::uint64_t flows_high_water = 0;
    double pending_sum = 0.0;
    std::uint64_t pending_samples = 0;
};

/** Result of one SwarmRuntime replay. */
struct RuntimeReplay
{
    double wall_s = 0.0;
    double sim_s = 0.0;
    std::uint64_t epochs = 0;
    std::uint64_t forwarded = 0;
};

void replay_cloud(const Traffic& traffic, CloudReplay& acc);
void replay_net(const Traffic& traffic, NetReplay& acc);
RuntimeReplay replay_runtime(int shards, double envelopes_per_sim_s,
                             int sim_seconds, std::uint64_t seed);
/** Host ns per event of a hold-model kernel at @p pending depth. */
double replay_kernel(std::size_t pending, std::uint64_t seed);

}  // namespace perfbench
