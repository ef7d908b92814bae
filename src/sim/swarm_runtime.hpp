#pragma once

/**
 * @file
 * Sharded simulation runtime: conservative parallel discrete-event
 * execution over N Simulator shards.
 *
 * The SwarmRuntime partitions a swarm across shard kernels and runs
 * them on separate threads using epoch-based conservative
 * synchronization (the classic null-message/lookahead discipline, in
 * barrier form):
 *
 *  - Every cross-shard interaction goes through a *channel* with a
 *    declared minimum latency L >= 1 tick. The full per-(src,dst)
 *    latency matrix is kept; the global lookahead (min over channels)
 *    remains available as a fallback.
 *  - Adaptive per-pair windows (the default): each epoch samples
 *    every shard's *horizon* s_i = min(next_time(), earliest envelope
 *    staged for i) — any pending event may send — closes the
 *    horizons transitively under the channel graph (the LBTS
 *    relaxation s_i <- min(s_i, s_j + L(j,i)), so a shard's horizon
 *    also covers sends *provoked* by messages it has not received
 *    yet — e.g. a request from j at t can make i reply by
 *    t + L(j,i)), and gives each destination its own window
 *        W_j = min(until, min over i != j with L(i,j) declared of
 *                          s_i + L(i,j) - 1).
 *    Any message reaching j descends from some pending event or
 *    staged envelope; walking its reaction chain through the closed
 *    horizons shows it arrives after W_j, so it is staged before the
 *    first epoch whose window covers it. Since s_i >= H and L >= 1,
 *    W_j >= H — the shard holding the global horizon always
 *    progresses. A shard's own channel never bounds its window:
 *    self-posts skip the mailbox and go straight into the owner
 *    kernel (see post()).
 *  - Global-lookahead mode (set_adaptive_lookahead(false); the
 *    platform layer maps ScenarioConfig::adaptive_lookahead onto it):
 *    every shard gets the classic
 *    W = min(until, H + lookahead - 1), H = min next_time(), and
 *    every post, self-posts included, hops through the mailbox.
 *  - Shards run run_until(W) in parallel (shard 0 on the caller's
 *    thread, shards 1..N-1 on persistent worker threads bracketed by
 *    two std::barrier phases). Messages sent during the epoch land in
 *    per-(src,dst) mailboxes that only the source shard's thread
 *    writes; the coordinator drains them between epochs, so no locks
 *    are needed on the hot path.
 *  - At the barrier, each destination's envelopes are stable-sorted
 *    by (delivery time, origin actor) and scheduled in that order.
 *
 * Determinism across shard counts: windows only decide *when* staged
 * envelopes are released, never in what order they run. Every
 * envelope for a given (dst, when) is staged before the first window
 * that covers it and released sorted by (when, origin), a key
 * independent of which shard an actor landed on (in global mode the
 * epoch sequence itself depends only on the global event horizon and
 * the declared lookahead, neither of which changes with N). Provided
 * actors interact *only* through post() (including same-shard
 * neighbours), a run is byte-identical for any shard count, N=1
 * included.
 */

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hivemind::sim {

/** Coordinates N Simulator shards under conservative epoch sync. */
class SwarmRuntime
{
  public:
    /** One cross-shard message awaiting delivery. */
    struct Envelope
    {
        Time when = 0;              ///< Absolute delivery time.
        std::uint64_t origin = 0;   ///< Sending actor (merge tiebreak).
        InlineFn fn;                ///< Runs on the destination shard.
    };

    /** What one run_until() call did. */
    struct Report
    {
        std::uint64_t epochs = 0;     ///< Barrier rounds executed.
        std::uint64_t executed = 0;   ///< Events run across all shards.
        std::uint64_t forwarded = 0;  ///< Envelopes delivered.
        Time horizon = 0;             ///< Last window upper bound.
    };

    explicit SwarmRuntime(int shards);
    ~SwarmRuntime();

    SwarmRuntime(const SwarmRuntime&) = delete;
    SwarmRuntime& operator=(const SwarmRuntime&) = delete;

    int shards() const { return static_cast<int>(sims_.size()); }

    /** The shard kernels. Schedule shard-local work directly on them. */
    Simulator& shard(int i) { return *sims_[static_cast<std::size_t>(i)]; }

    /** Default round-robin owner for an actor id. */
    int owner_of(std::uint64_t actor) const
    {
        return static_cast<int>(actor % sims_.size());
    }

    /**
     * Declare a channel between two shards (src == dst allowed — and
     * required for shard-count invariance, so that the lookahead does
     * not depend on how actors happen to be partitioned). Every post
     * on the channel must add at least @p min_latency to the sending
     * shard's current time. Tightens the global lookahead.
     */
    void declare_channel(int src, int dst, Time min_latency);

    /** Minimum declared channel latency (kNever if none declared). */
    Time lookahead() const { return lookahead_; }

    /** Declared (src, dst) channel latency; kNever if undeclared. */
    Time channel_latency(int src, int dst) const
    {
        return lat_[static_cast<std::size_t>(src) * sims_.size() +
                    static_cast<std::size_t>(dst)];
    }

    /**
     * Toggle adaptive per-pair windows (on by default; off selects
     * global-lookahead mode). Call before run_until().
     */
    void set_adaptive_lookahead(bool on) { adaptive_ = on; }

    /** Whether adaptive per-pair windows are active. */
    bool adaptive_lookahead() const { return adaptive_; }

    /**
     * The window shard @p dst ran to in the most recent epoch
     * (introspection for window-math tests).
     */
    Time window_of(int dst) const
    {
        return windows_[static_cast<std::size_t>(dst)];
    }

    /**
     * Send @p fn to run on shard @p dst at absolute time @p when.
     * Must be called from @p src's thread (shard 0 = the coordinator
     * thread) during an epoch or before run_until(). @p when must
     * respect the declared channel latency; the drain step enforces
     * that it lands strictly beyond the current window.
     */
    void post(int src, int dst, Time when, std::uint64_t origin,
              InlineFn fn);

    /**
     * Run every shard up to @p until (inclusive) in lookahead-bounded
     * epochs, delivering cross-shard envelopes at each barrier.
     * Returns once no shard holds an event at or before @p until.
     */
    Report run_until(Time until);

    /**
     * Like run_until(), but additionally evaluates @p stop on the
     * coordinator thread between epochs (after the drain) and returns
     * early once it yields true. With adaptive lookahead OFF the
     * epoch window sequence depends only on the global event horizon
     * and the declared lookahead, so the epoch in which a
     * deterministic simulation-time condition is first observed is
     * invariant across shard counts and an early stop preserves
     * byte-identical state at any N. With adaptive windows the epoch
     * sequence is N-dependent; callers that need shard-count-
     * invariant early stops should instead call run_until(t) in
     * fixed simulated-time slices and test the condition at slice
     * boundaries (see ShardedScenarioEngine::run).
     */
    Report run_until(Time until, const std::function<bool()>& stop);

    /** Sum of pending events across shards (between epochs only). */
    std::size_t pending() const;

  private:
    void worker(int i);
    /**
     * Compute this epoch's per-shard windows into windows_ from the
     * global horizon @p h (global mode) or the per-shard horizons
     * run_until() sampled into horizons_ (adaptive mode, which closes
     * them in place).
     */
    void compute_windows(Time until, Time h);
    /** Move all mailboxes into the per-dst staging buffers. */
    void drain();
    /**
     * Schedule staged envelopes with when <= the dst's window, in
     * (when, origin) order; returns envelopes released.
     *
     * Staging + sorted release is what keeps tie-breaking invariant
     * across shard counts under adaptive windows: the epoch at which
     * a send executes (and hence at which its envelope *arrives*)
     * depends on N, but every envelope for a given (dst, when) is
     * provably staged before the first epoch whose window reaches
     * that time — while the send is pending, s_src <= send time keeps
     * W_dst < when. Releasing them together, sorted, at that epoch
     * (with the kernel's envelope seq class for local-vs-envelope
     * ties) makes same-time execution order independent of arrival
     * timing.
     */
    std::uint64_t release_staged();
    /** Earliest staged delivery time for @p dst, or kNever. */
    Time staged_min(std::size_t dst) const;

    std::vector<std::unique_ptr<Simulator>> sims_;
    /// mail_[src * N + dst]: written only by src's thread in-epoch.
    std::vector<std::vector<Envelope>> mail_;
    /// staged_[dst]: envelopes awaiting a window that covers them.
    std::vector<std::vector<Envelope>> staged_;
    std::vector<Envelope> merge_;  ///< Release scratch, one dst at a time.
    Time lookahead_ = Simulator::kNever;
    /// lat_[src * N + dst]: declared channel latency (kNever = none).
    std::vector<Time> lat_;
    bool adaptive_ = true;
    std::vector<Time> horizons_;  ///< Per-epoch per-shard horizons.

    // Parallel machinery (absent for N == 1).
    std::vector<std::jthread> threads_;
    std::unique_ptr<std::barrier<>> start_;
    std::unique_ptr<std::barrier<>> finish_;
    /// Per-shard epoch windows; written by the coordinator before the
    /// start barrier, read by workers after it.
    std::vector<Time> windows_;
    bool quit_ = false;  ///< Read by workers after the start barrier.
};

}  // namespace hivemind::sim
