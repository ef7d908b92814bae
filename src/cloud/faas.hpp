#pragma once

/**
 * @file
 * Serverless (FaaS) runtime modeled on Apache OpenWhisk.
 *
 * Invocation pipeline (Sec. 2.3): an HTTP request hits the NGINX
 * front-end, the Controller authenticates against CouchDB and picks
 * an Invoker, the function descriptor travels over Kafka, and the
 * Invoker instantiates the function in a Docker container (cold) or
 * reuses a warm one. Execution occupies a pinned logical core;
 * interference from co-located containers and occasional stragglers
 * perturb the service time (Sec. 3.3). Failed functions are respawned
 * (Fig. 5c). Inter-function inputs/outputs go through the
 * DataSharingFabric under a configurable protocol (Fig. 6c).
 *
 * The placement decision is pluggable: HiveMind's scheduler
 * (src/core) swaps in its own policy that co-locates children with
 * parents and keeps containers warm for 10-30 s (Sec. 4.3).
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/datastore.hpp"
#include "cloud/server.hpp"
#include "cloud/sharing.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"

namespace hivemind::cloud {

/** Fault-recovery policy for an invocation (DSL Restore, Listing 2). */
enum class FaultRecovery
{
    None,        ///< A failed function is lost (caller never hears back).
    Respawn,     ///< Re-execute from scratch (OpenWhisk default).
    Checkpoint,  ///< Resume from the last persisted checkpoint.
};

/** Sentinel for "no preferred server". */
inline constexpr std::size_t kNoServer = std::numeric_limits<std::size_t>::max();

/** Runtime tuning knobs (defaults model stock OpenWhisk). */
struct FaasConfig
{
    /** NGINX + controller + auth-DB front-end latency (median). */
    sim::Time front_end_median = sim::from_millis(3.0);
    double front_end_sigma = 0.40;
    /** Kafka publish-subscribe hop to the chosen invoker. */
    sim::Time bus_delay = sim::from_millis(2.0);
    /** Controller scheduling decision. */
    sim::Time sched_overhead = sim::from_millis(1.0);
    /** Docker cold-start latency (median, lognormal). */
    sim::Time cold_start_median = sim::from_millis(160.0);
    double cold_start_sigma = 0.35;
    /**
     * Warm container reuse latency. Stock OpenWhisk pauses idle
     * containers; reuse pays an unpause + runtime re-init. HiveMind's
     * scheduler keeps containers hot (Sec. 4.3) and lowers this.
     */
    sim::Time warm_start = sim::from_millis(45.0);
    /**
     * Idle container lifetime. Stock OpenWhisk tears containers down
     * shortly after completion; HiveMind keeps them 10-30 s (Sec. 4.3).
     */
    sim::Time keepalive = sim::from_millis(400.0);
    /** Concurrent-function user limit (AWS default: 1000). */
    int max_concurrency = 1000;
    /**
     * Controller front-end throughput, requests/second. The stock
     * OpenWhisk deployment runs one controller; it becomes the
     * serialization point at large swarm sizes (Sec. 5.6). HiveMind
     * deploys multiple shared-state schedulers when needed.
     */
    double controller_rps = 600.0;
    /** Number of controller/scheduler replicas (Sec. 4.3). */
    int controllers = 1;
    /** Service-time jitter floor (reserved-style noise). */
    double interference_base_sigma = 0.06;
    /** Extra jitter proportional to server occupancy (co-location). */
    double interference_load_sigma = 0.50;
    /** Probability an invocation is an extreme straggler. */
    double straggler_prob = 0.012;
    /** Straggler slow-down upper bound (bounded pareto). */
    double straggler_max_factor = 6.0;
    /** Probability a function fails mid-run and must respawn. */
    double fault_prob = 0.0;
    /** Protocol for inter-function data exchange. */
    SharingProtocol sharing = SharingProtocol::CouchDb;
    /**
     * Cache/memory-bandwidth partitioning between co-located
     * containers (Sec. 4.3 "can also be integrated ... for
     * performance and security isolation"): removes load-dependent
     * interference at a small fixed throughput cost.
     */
    bool performance_isolation = false;
};

/**
 * Dense id of an app (an action, i.e. a container image) within one
 * FaasRuntime. FaasRuntime::intern hands ids out in first-use order,
 * and the warm pool and the scheduler's latency history index by them.
 * AppId{} is the unnamed app "", which every runtime interns first.
 */
struct AppId
{
    std::uint32_t index = 0;

    friend bool operator==(AppId, AppId) = default;
};

/** One function invocation request. */
struct InvokeRequest
{
    /** Action (container image) id; warm reuse is per-app. */
    AppId app;
    /** CPU work on a reference cloud core, in core-milliseconds. */
    double work_core_ms = 10.0;
    /** Container memory footprint. */
    std::uint64_t memory_mb = 256;
    /** Bytes of parent output to fetch before executing. */
    std::uint64_t input_bytes = 0;
    /** Bytes of output to publish after executing. */
    std::uint64_t output_bytes = 0;
    /** Preferred server (HiveMind co-location hint). */
    std::size_t preferred_server = kNoServer;
    /**
     * When the preferred server hosts the parent's container and the
     * child can run in it, the hand-off is in-memory (Sec. 4.3).
     */
    bool colocate_with_parent = false;
    /** Fault-recovery policy (DSL Restore directive). */
    FaultRecovery recovery = FaultRecovery::Respawn;
    /**
     * Dedicated container (DSL Isolate directive): never reuse a warm
     * container and never donate this one to the warm pool.
     */
    bool isolate = false;
    /** Scheduling priority (DSL Schedule directive; higher first). */
    int priority = 0;
    /**
     * Checkpoint interval as a fraction of the work; on failure the
     * resumed copy redoes at most this fraction (plus restore cost).
     */
    double checkpoint_granularity = 0.25;
};

/** Timing trace of one completed invocation. */
struct InvocationTrace
{
    sim::Time submit = 0;           ///< Request arrival.
    sim::Time scheduled = 0;        ///< Placement decided (mgmt done).
    sim::Time container_ready = 0;  ///< Cold/warm start finished.
    sim::Time input_ready = 0;      ///< Input data fetched.
    sim::Time exec_done = 0;        ///< Function body finished.
    sim::Time done = 0;             ///< Output published; completion.
    bool cold_start = false;
    bool colocated = false;         ///< Ran in parent's container.
    bool lost = false;              ///< Failed with FaultRecovery::None.
    int attempts = 1;               ///< 1 + respawns after faults.
    std::size_t server = kNoServer;

    /** Management share: front-end + scheduling + bus. */
    double mgmt_s() const { return sim::to_seconds(scheduled - submit); }
    /** Container instantiation share. */
    double instantiation_s() const
    {
        return sim::to_seconds(container_ready - scheduled);
    }
    /** Data I/O share (input fetch + output publish). */
    double data_s() const
    {
        return sim::to_seconds((input_ready - container_ready) +
                               (done - exec_done));
    }
    /** Pure execution share. */
    double exec_s() const { return sim::to_seconds(exec_done - input_ready); }
    /** End-to-end latency in seconds. */
    double total_s() const { return sim::to_seconds(done - submit); }
};

/** Completion callback for an invocation. */
using InvokeCallback = std::function<void(const InvocationTrace&)>;

/**
 * Completion of a fan-out (FaasRuntime::invoke_fan_out). Move-only,
 * with 32 bytes of inline storage, so a wrapper around a
 * `std::function` waits in the join record without a heap cell.
 */
using JoinCallback = sim::InlineFunction<void(const InvocationTrace&)>;

/** Submits one part of a fan-out with its completion callback. */
using PartInvoker =
    std::function<void(const InvokeRequest&, InvokeCallback)>;

/**
 * Placement policy hook: return the server to run on, or nullopt to
 * defer (queue) the request. @p warm_server is the server holding a
 * warm container for the app, if any.
 */
using PlacementPolicy = std::function<std::optional<std::size_t>(
    const InvokeRequest& request, const Cluster& cluster,
    std::optional<std::size_t> warm_server)>;

/** OpenWhisk-style serverless runtime over a Cluster. */
class FaasRuntime
{
  public:
    FaasRuntime(sim::Simulator& simulator, sim::Rng& rng, Cluster& cluster,
                DataStore& store, const FaasConfig& config);

    /**
     * The id of app @p name, assigned on its first use. Set-up work: a
     * linear search over the names seen so far, so callers intern once
     * per name and keep the id.
     */
    AppId intern(std::string_view name);

    /** Submit an invocation; @p done fires at completion. */
    void invoke(const InvokeRequest& request, InvokeCallback done);

    /**
     * Fan-out/fan-in helper for intra-task parallelism (Sec. 3.2):
     * splits @p request.work_core_ms across @p ways functions, runs
     * them concurrently, pays one extra data aggregation per worker,
     * and reports a trace whose exec window spans first-start to
     * last-finish.
     */
    void invoke_parallel(const InvokeRequest& request, int ways,
                         InvokeCallback done);

    /**
     * Fan-out/fan-in for intra-task parallelism (Sec. 3.2): splits
     * @p request's work, input and output evenly across @p ways parts,
     * submits the parts in order through @p invoke_part, and fires
     * @p done once with a trace spanning the slowest part when the
     * last one finishes (lost if any part was lost). @p ways <= 1
     * submits @p request whole. The one split and join behind
     * invoke_parallel and platform::CloudTier::invoke; the join waits
     * in a slab record of this runtime, and each part's callback is
     * 16 bytes.
     */
    void invoke_fan_out(const InvokeRequest& request, int ways,
                        const PartInvoker& invoke_part, JoinCallback done);

    /** Replace the placement policy (HiveMind scheduler hook). */
    void set_placement_policy(PlacementPolicy policy);

    /**
     * Re-attempt queued invocations. Call after cluster capacity was
     * freed outside the runtime's own completion path (e.g., a server
     * leaving probation).
     */
    void poke() { drain_queue(); }

    /**
     * Crash a backend server (Sec. 4.7 robustness): every container on
     * it dies instantly — warm pool entries evaporate, in-flight
     * invocations are killed and re-driven through their Restore
     * policies (None loses them, Respawn restarts from scratch,
     * Checkpoint resumes from the last boundary). The server stays
     * down until someone calls restore_server (fault::route_plan()
     * schedules that for a crash with a duration). No-op when the
     * server is already down.
     */
    void crash_server(std::size_t server);

    /** Bring a crashed server back into placement immediately. */
    void restore_server(std::size_t server);

    /** In-flight invocations killed by server crashes. */
    std::uint64_t killed_invocations() const { return killed_invocations_; }

    /** Function progress discarded by faults and crashes, core-ms. */
    double work_lost_core_ms() const { return work_lost_core_ms_; }

    /** Previously executed work re-driven after recovery, core-ms. */
    double reexecuted_core_ms() const { return reexecuted_core_ms_; }

    /** Currently running + queued invocations. */
    int active() const { return active_; }

    /** Completed invocation count. */
    std::uint64_t completed() const { return completed_; }

    /** Cold starts incurred. */
    std::uint64_t cold_starts() const { return cold_starts_; }

    /** Warm reuses. */
    std::uint64_t warm_starts() const { return warm_starts_; }

    /** Function faults injected (each triggers recovery). */
    std::uint64_t faults() const { return faults_; }

    /** Invocations lost under FaultRecovery::None. */
    std::uint64_t lost() const { return lost_; }

    /** The cluster (worker-monitor view). */
    Cluster& cluster() { return *cluster_; }

    /** Active config. */
    const FaasConfig& config() const { return config_; }

    /** Mutable config access (experiments adjust fault rates live). */
    FaasConfig& mutable_config() { return config_; }

  private:
    /**
     * One invocation, from invoke() until its done callback: a slab
     * record. Every continuation captures {this, slot} only, so it
     * stays inline in the kernel's event slot.
     */
    struct Invocation
    {
        InvokeRequest request;
        InvokeCallback done;
        InvocationTrace trace;
        /** Fraction of the work already checkpointed (Checkpoint). */
        double completed_fraction = 0.0;
        /** Host epoch when the container started (crash detection). */
        std::uint64_t epoch = 0;
        /** Completion (or self-fault) event of the executing body; 0
         *  while no body runs. */
        sim::EventId body_event = 0;
        /** Start order of the body: crash sweeps re-drive by it. */
        std::uint64_t body_id = 0;
        sim::Time exec_start = 0;
        double full_exec_ms = 0.0;  ///< Time to finish the remaining work.
        bool self_fault = false;    ///< Scheduled to die mid-run.
        double dead_frac = 0.0;
    };

    /** One fan-out waiting for its parts (invoke_fan_out). */
    struct Join
    {
        InvocationTrace merged;
        JoinCallback done;
        int remaining = 0;
        bool first = true;
    };

    /**
     * Free the record, then fire its done callback with its trace. The
     * record goes first because the callback may invoke again.
     */
    void complete_invocation(std::uint32_t slot);

    /** Placement decided, or a retry re-entered scheduling. */
    void scheduled(std::uint32_t slot);

    /**
     * Try to place/start an invocation; queue it if no capacity.
     * @return true when the invocation started.
     */
    bool try_start(std::uint32_t slot);

    /** Queue an invocation behind its priority. */
    void enqueue(std::uint32_t slot);

    /** Begin container acquisition on the chosen server. */
    void start_on_server(std::uint32_t slot, std::size_t server,
                         bool reuse_warm);

    /** Cold/warm start finished: fetch input, then run the body. */
    void container_started(std::uint32_t slot);

    /** Run the function body (after input fetch). */
    void run_body(std::uint32_t slot);

    /** The body's completion (or self-fault) event fired. */
    void body_ended(std::uint32_t slot);

    /** Function body finished; publish output. */
    void finish(std::uint32_t slot);

    /** Output published: release the container and complete. */
    void output_published(std::uint32_t slot);

    /** Whether the invocation's container died in a server crash. */
    bool container_lost(const Invocation& inv) const;

    /**
     * Recovery path after a server crash killed the invocation's
     * container: count the kill and recover() at overall progress
     * @p progressed. The crashed host's occupancy was already wiped
     * wholesale, so nothing is released here.
     */
    void redrive_after_crash(std::uint32_t slot, double progressed);

    /** The function's own mid-run fault fired (fault_prob path):
     *  release its core and memory, then recover(). */
    void body_self_fault(std::uint32_t slot);

    /**
     * The Restore policy (Listing 2 / Sec. 3.2), applied at overall
     * progress @p progressed: Checkpoint keeps the work up to the last
     * checkpoint boundary, and the progress past what is kept is
     * booked as work lost. None then reports the invocation lost;
     * every other policy books that progress as re-executed and
     * re-enters scheduling after sched_overhead + bus_delay.
     */
    void recover(std::uint32_t slot, double progressed);

    /** One part of the fan-out in join @p slot finished with @p t. */
    void join_part(std::uint32_t slot, const InvocationTrace& t);

    /**
     * Claim a warm container for an app: @p preferred's newest if that
     * server can take it, otherwise the newest on any server that can.
     * @return the server it runs on.
     */
    std::optional<std::size_t> claim_warm(AppId app, std::size_t preferred);

    /**
     * Peek which server holds a warm container without claiming:
     * @p preferred if it holds one, otherwise the server of the app's
     * newest container.
     */
    std::optional<std::size_t> peek_warm(AppId app,
                                         std::size_t preferred) const;

    /** Park an idle container as warm with a keep-alive timer. */
    void park_warm(AppId app, std::size_t server, std::uint64_t memory_mb);

    /** Keep-alive expiry of the container parked in @p slot at
     *  @p generation; a no-op once that container left the pool. */
    void expire_warm(std::uint32_t slot, std::uint32_t generation);

    /** Unlink a parked container and free its slot. */
    void unpark(std::uint32_t slot);

    /** Service the pending queue after capacity was released. */
    void drain_queue();

    sim::Simulator* simulator_;
    sim::Rng rng_;
    Cluster* cluster_;
    FaasConfig config_;
    DataSharingFabric sharing_;
    PlacementPolicy policy_;

    /** Invocations and fan-out joins in flight. */
    sim::Slab<Invocation> invocations_;
    sim::Slab<Join> joins_;

    /** App names by id (intern). */
    std::vector<std::string> app_names_;

    /*
     * Idle warm containers, reused most recently parked first (MRU,
     * DESIGN.md §8.1). Each parked container is a slot in a slab,
     * linked newest-first into its app's list and into its (app,
     * server) list. Freed slots go on a free list, so parking stops
     * allocating once the slab reaches the run's peak. The per-app
     * heads sit in a vector indexed by AppId, grown when an app first
     * parks.
     */
    static constexpr std::uint32_t kNil =
        std::numeric_limits<std::uint32_t>::max();
    struct WarmApp
    {
        std::uint32_t newest = kNil;
        /** Per server, or kNil; empty until the app first parks. */
        std::vector<std::uint32_t> newest_on;
    };
    struct WarmEntry
    {
        std::uint64_t memory_mb = 0;
        sim::EventId expiry = 0;
        std::size_t server = kNoServer;
        AppId app;
        /** Neighbours in the app's list; `older` also links free slots. */
        std::uint32_t newer = kNil;
        std::uint32_t older = kNil;
        /** Neighbours in the (app, server) list. */
        std::uint32_t newer_here = kNil;
        std::uint32_t older_here = kNil;
        std::uint32_t generation = 0;  ///< Bumped when the slot is freed.
    };
    std::vector<WarmApp> warm_;
    std::vector<WarmEntry> warm_slots_;
    std::uint32_t warm_free_ = kNil;

    /** Queued invocation slots by priority (higher drain first). */
    std::map<int, std::deque<std::uint32_t>, std::greater<int>> queue_;
    /** Next body start number (Invocation::body_id). */
    std::uint64_t next_body_id_ = 0;
    /**
     * Next-free time of each controller replica, earliest on top. The
     * replicas are interchangeable, so which of several equally early
     * ones serves a request cannot change any result.
     */
    std::priority_queue<sim::Time, std::vector<sim::Time>, std::greater<>>
        controller_free_;
    int active_ = 0;
    int running_ = 0;  // Functions holding a core (gated by the limit).
    std::uint64_t completed_ = 0;
    std::uint64_t cold_starts_ = 0;
    std::uint64_t warm_starts_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t lost_ = 0;
    std::uint64_t killed_invocations_ = 0;
    double work_lost_core_ms_ = 0.0;
    double reexecuted_core_ms_ = 0.0;
};

}  // namespace hivemind::cloud
