#pragma once

/**
 * @file
 * HiveMind's serverless cloud scheduler (Secs. 4.3, 4.6).
 *
 * Implemented "directly in OpenWhisk's centralized controller": the
 * scheduler (1) co-locates child functions with their parents so the
 * hand-off is in-memory, falling back to the remote-memory fabric
 * when the parent's server is full; (2) keeps idle containers alive
 * 10-30 s to absorb instantiation overheads; (3) never shares a
 * logical core between containers (inherited from the Server model);
 * (4) respawns functions that exceed the job's 90th-percentile
 * latency and takes whichever finishes first; and (5) puts servers
 * producing repeated stragglers on probation for a few minutes.
 */

#include <cstdint>
#include <vector>

#include "cloud/faas.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "sim/stats.hpp"

namespace hivemind::core {

/**
 * Sliding-window percentile tracker for straggler thresholds.
 *
 * Keeps the most recent @p capacity latencies in a ring and caches the
 * requested percentile, recomputing it every @p refresh additions —
 * so per-completion cost stays O(1) even over million-task runs.
 *
 * A refresh reads the two order statistics the interpolation needs
 * exactly, without selecting over the whole window: it keeps a band of
 * values around the last answer, counts the window's values below the
 * band and sorts only the values inside it (about 2 * kBandMargin).
 * When the target ranks left the band, it falls back to a full
 * selection and re-centres the band.
 */
class PercentileTracker
{
  public:
    explicit PercentileTracker(std::size_t capacity = 4096,
                               std::size_t refresh = 256)
        : capacity_(capacity), refresh_(refresh)
    {
    }

    /** Record one latency sample (seconds). */
    void add(double x);

    /** Samples ever recorded. */
    std::uint64_t count() const { return total_; }

    /** Cached percentile of the recent window; 0 until refreshed. */
    double threshold(double p) const;

  private:
    /** Ranks kept on each side of the answer's two ranks. */
    static constexpr std::size_t kBandMargin = 64;

    /**
     * The values of ranks @p lo and lo + 1 (lo + 1 < window size) from
     * the band; false when either rank lies outside it.
     */
    bool band_select(std::size_t lo, double& at_lo, double& at_next) const;

    /** The same two values by selection over the whole window; sets
     *  the band to ranks lo - kBandMargin .. lo + 1 + kBandMargin. */
    void full_select(std::size_t lo, double& at_lo, double& at_next) const;

    std::size_t capacity_;
    std::size_t refresh_;
    std::vector<double> ring_;
    std::size_t next_ = 0;
    std::uint64_t total_ = 0;
    mutable std::vector<double> scratch_;  ///< Reused selection buffer.
    mutable bool band_valid_ = false;
    mutable double band_lo_ = 0.0;  ///< Band: band_lo_ <= x <= band_hi_.
    mutable double band_hi_ = 0.0;
    mutable double cached_p_ = -1.0;
    mutable double cached_value_ = 0.0;
    mutable std::uint64_t cached_at_ = 0;
};

/** Scheduler tuning (defaults from Secs. 4.3 / 4.6). */
struct SchedulerConfig
{
    /** Idle container keep-alive window (empirically 10-30 s). */
    sim::Time keepalive_min = 10 * sim::kSecond;
    sim::Time keepalive_max = 30 * sim::kSecond;
    /** Latency percentile that flags a straggler. */
    double straggler_percentile = 90.0;
    /** Minimum completed samples before mitigation activates. */
    std::size_t straggler_min_samples = 30;
    /**
     * Leaky-bucket straggler score at which a server goes on
     * probation. Each straggler adds 1; each normal completion from
     * the same server decays the score, so probation requires
     * stragglers *concentrated* on one node (Sec. 4.6: "if several
     * underperforming tasks all come from the same physical node").
     */
    double probation_threshold = 6.0;
    /** Score decay per normal completion. */
    double probation_decay = 0.25;
    /** Probation duration ("a few minutes"). */
    sim::Time probation_duration = 120 * sim::kSecond;
    /** Never put more than this fraction of servers on probation. */
    double probation_max_fraction = 0.5;
};

/**
 * The HiveMind scheduler: wraps a FaasRuntime with placement,
 * keep-alive, straggler-mitigation, and probation policies.
 */
class HiveMindScheduler
{
  public:
    HiveMindScheduler(sim::Simulator& simulator, sim::Rng& rng,
                      cloud::FaasRuntime& runtime,
                      const SchedulerConfig& config);

    /**
     * Install the scheduler into the runtime: replaces the placement
     * policy and widens the container keep-alive window.
     */
    void install();

    /**
     * Invoke with straggler mitigation: if the invocation exceeds the
     * app's p-th percentile latency, a duplicate is respawned and the
     * first finisher wins (Sec. 4.6).
     */
    void invoke(const cloud::InvokeRequest& request,
                cloud::InvokeCallback done);

    /** Duplicates launched by the mitigation policy. */
    std::uint64_t respawns() const { return respawns_; }

    /** Completed-latency history for an app. */
    const PercentileTracker& history(cloud::AppId app) const;

    const SchedulerConfig& config() const { return config_; }

  private:
    /**
     * One invocation racing its possible straggler duplicate: a slab
     * record, freed by the first copy to finish. Copies hold
     * {this, slot, generation}, so a later finisher sees a stale
     * generation and drops out.
     */
    struct Race
    {
        cloud::InvokeRequest request;  ///< What the watchdog duplicates.
        cloud::InvokeCallback done;
        sim::EventId watchdog = 0;     ///< 0 when none is armed.
        std::uint32_t generation = 0;  ///< Bumped when the record frees.
    };

    /** A copy of race @p slot (at @p generation) finished. */
    void race_finished(std::uint32_t slot, std::uint32_t generation,
                       const cloud::InvocationTrace& trace);

    /** The straggler watchdog of race @p slot fired: launch the
     *  duplicate. */
    void launch_duplicate(std::uint32_t slot, std::uint32_t generation);

    /** The completion callback of one copy of race @p slot. */
    cloud::InvokeCallback race_callback(std::uint32_t slot,
                                        std::uint32_t generation);

    /** Record a completion and update server straggler accounting. */
    void note_completion(cloud::AppId app, double latency_s,
                         std::size_t server);

    /** Placement decision (the PlacementPolicy hook body). */
    std::optional<std::size_t>
    place(const cloud::InvokeRequest& request, const cloud::Cluster& cluster,
          std::optional<std::size_t> warm_server) const;

    sim::Simulator* simulator_;
    sim::Rng rng_;
    cloud::FaasRuntime* runtime_;
    SchedulerConfig config_;
    /** Latency history per app, indexed by AppId; grown on first use. */
    std::vector<PercentileTracker> history_;
    std::vector<double> straggler_score_;
    std::uint64_t respawns_ = 0;
    sim::Slab<Race> races_;
};

}  // namespace hivemind::core
