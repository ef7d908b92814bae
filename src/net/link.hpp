#pragma once

/**
 * @file
 * Flow-level network link model.
 *
 * A Link serializes transfers FIFO at a fixed rate and adds a
 * propagation delay, the standard flow-level abstraction for
 * queueing-network simulators. Congestion emerges naturally: when
 * offered load exceeds the link rate the busy horizon grows and
 * latency explodes, which is exactly the Fig. 3b saturation behaviour.
 */

#include <cstdint>

#include "sim/inline_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hivemind::net {

/** A unidirectional link with FIFO serialization and propagation. */
class Link
{
  public:
    /**
     * @param simulator event kernel the link schedules on
     * @param rate_bps capacity in bits per second
     * @param propagation one-way propagation + switching latency
     */
    Link(sim::Simulator& simulator, double rate_bps, sim::Time propagation);

    /**
     * Enqueue a transfer of @p bytes; @p done fires when the last bit
     * arrives at the far end.
     *
     * @return the completion time of the transfer.
     */
    sim::Time transfer(std::uint64_t bytes, sim::InlineFn done);

  private:
    sim::Simulator* simulator_;
    double rate_bps_;
    sim::Time propagation_;
    sim::Time busy_until_ = 0;
};

}  // namespace hivemind::net
