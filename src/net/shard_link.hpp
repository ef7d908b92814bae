#pragma once

/**
 * @file
 * Shard-aware link endpoint for the sharded runtime.
 *
 * A ShardLink is the cross-shard edition of Link: FIFO serialization
 * at a fixed rate plus propagation, but the completion callback is
 * delivered through the SwarmRuntime mailbox path instead of being
 * scheduled directly, so sender and receiver may live on different
 * shard kernels (and threads).
 *
 * The propagation delay doubles as the link's lookahead bound: the
 * constructor declares a (src, dst) channel with min latency equal to
 * the propagation, which is the earliest any send can arrive. Keep
 * propagation >= 1 tick — a zero-latency cross-shard link would
 * collapse the conservative window to nothing.
 *
 * Serializer state lives on the source shard and is only touched from
 * its thread, so no synchronization is needed beyond the runtime's
 * epoch barriers.
 */

#include <cstdint>
#include <string>

#include "sim/inline_fn.hpp"
#include "sim/swarm_runtime.hpp"
#include "sim/time.hpp"

namespace hivemind::net {

/** Unidirectional cross-shard link: FIFO serializer + mailbox hop. */
class ShardLink
{
  public:
    /**
     * @param runtime the sharded runtime carrying deliveries
     * @param src shard owning the sender (serializer lives here)
     * @param dst shard owning the receiver
     * @param origin actor id used as the deterministic merge tiebreak
     * @param rate_bps capacity in bits per second
     * @param propagation one-way latency; also the channel lookahead
     */
    ShardLink(sim::SwarmRuntime& runtime, int src, int dst,
              std::uint64_t origin, double rate_bps,
              sim::Time propagation);

    /**
     * Enqueue a transfer of @p bytes; @p done runs on the destination
     * shard when the last bit arrives. Call only from the source
     * shard's thread.
     *
     * @return the arrival time at the far end.
     */
    sim::Time transfer(std::uint64_t bytes, sim::InlineFn done);

    /** Total payload bytes accepted. */
    std::uint64_t bytes_total() const { return bytes_total_; }

    /**
     * Chaos loss override for this link. Negative (the default) means
     * no override; [0, 1] is the probability a caller-rolled
     * transmission attempt over this link is lost. The link itself
     * never drops — callers sample against loss() with their own
     * shard-local RNG so the roll participates in deterministic
     * replay. Only touch from the source shard's thread.
     */
    void set_loss(double loss) { loss_ = loss; }
    double loss() const { return loss_; }

  private:
    sim::SwarmRuntime* runtime_;
    int src_;
    int dst_;
    std::uint64_t origin_;
    double rate_bps_;
    sim::Time propagation_;
    sim::Time busy_until_ = 0;
    std::uint64_t bytes_total_ = 0;
    double loss_ = -1.0;
};

}  // namespace hivemind::net
