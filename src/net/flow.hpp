#pragma once

/**
 * @file
 * Pooled multi-hop flow records.
 *
 * A "flow" is one store-and-forward transfer across up to kMaxHops
 * consecutive links, with optional RPC processing at either end and
 * an optional delivered-bytes meter: the pipeline every
 * SwarmTopology send path runs. The topology's original recursive
 * chain() allocated a fresh std::vector of the remaining hops plus a
 * heap-backed closure per hop per transfer; at 8k devices that is
 * millions of short-lived allocations per simulated second, all with
 * the same shape. FlowPool replaces them with a freelist of slab-
 * allocated Flow records — the hop array lives inline, every
 * continuation (per hop and the destination RPC tail) captures the
 * pool and one Flow pointer, and the caller's completion callback is
 * moved exactly once into the record.
 *
 * Flows are simulator-local and single-threaded, like everything
 * else scheduled on one kernel. A flow leaves live() the moment its
 * last hop lands; its record returns to the freelist once the
 * destination RPC stage (if any) has run.
 */

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hivemind::net {

class Link;
class RpcProcessor;

/**
 * Completion callback carrying the delivery time: move-only, with 32
 * bytes of inline capture storage, so a continuation of a few
 * pointers and times never takes a heap cell.
 */
using DeliveryCallback = sim::InlineFunction<void(sim::Time)>;

/** Freelist-slab allocator driving pooled multi-hop transfers. */
class FlowPool
{
  public:
    /** Longest hop sequence any topology path uses. */
    static constexpr int kMaxHops = 4;

    explicit FlowPool(sim::Simulator& simulator)
        : simulator_(&simulator)
    {
    }

    FlowPool(const FlowPool&) = delete;
    FlowPool& operator=(const FlowPool&) = delete;

    /**
     * Run one flow: @p src_rpc processing (if any), then @p hops in
     * order, then — at last-bit arrival time t — @p meter->add(t,
     * bytes) (if any), then @p dst_rpc processing (if any), then
     * @p done. With a destination RPC stage, @p done observes the
     * post-processing clock (done(now)); without one it receives the
     * arrival time t directly. An empty @p hops list completes
     * immediately at the current time.
     */
    void launch(RpcProcessor* src_rpc, std::initializer_list<Link*> hops,
                std::uint64_t bytes, sim::RateMeter* meter,
                RpcProcessor* dst_rpc, DeliveryCallback done);

    /** Flows currently in their hop/meter stages. */
    std::size_t live() const { return live_; }

    /** Most flows ever simultaneously live (sizes the slabs). */
    std::size_t high_water() const { return high_water_; }

    /** Slabs allocated so far (kSlabFlows records each). */
    std::size_t slabs() const { return slabs_.size(); }

    /** Records per slab. */
    static constexpr std::size_t kSlabFlows = 64;

  private:
    /** One pooled transfer; dormant records chain the freelist. */
    struct Flow
    {
        Link* hops[kMaxHops] = {};
        int hop_count = 0;
        int next_hop = 0;
        std::uint64_t bytes = 0;
        sim::RateMeter* meter = nullptr;
        RpcProcessor* dst_rpc = nullptr;
        DeliveryCallback done;
        Flow* free_next = nullptr;
    };

    Flow* acquire();
    void release(Flow* flow);
    /** Start the next hop, or run the meter/RPC/done tail. */
    void advance(Flow* flow);
    /** Recycle @p flow, then report delivery at @p when. */
    void deliver(Flow* flow, sim::Time when);

    sim::Simulator* simulator_;
    std::vector<std::unique_ptr<Flow[]>> slabs_;
    Flow* free_ = nullptr;
    std::size_t live_ = 0;
    std::size_t high_water_ = 0;
};

}  // namespace hivemind::net
