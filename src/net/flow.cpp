#include "net/flow.hpp"

#include <cassert>
#include <utility>

#include "net/link.hpp"
#include "net/rpc.hpp"

namespace hivemind::net {

FlowPool::Flow*
FlowPool::acquire()
{
    if (free_ == nullptr) {
        auto slab = std::make_unique<Flow[]>(kSlabFlows);
        for (std::size_t i = 0; i < kSlabFlows; ++i) {
            slab[i].free_next = free_;
            free_ = &slab[i];
        }
        slabs_.push_back(std::move(slab));
    }
    Flow* flow = free_;
    free_ = flow->free_next;
    flow->free_next = nullptr;
    ++live_;
    if (live_ > high_water_)
        high_water_ = live_;
    return flow;
}

void
FlowPool::release(Flow* flow)
{
    flow->done = nullptr;
    flow->hop_count = 0;
    flow->next_hop = 0;
    flow->meter = nullptr;
    flow->dst_rpc = nullptr;
    flow->free_next = free_;
    free_ = flow;
}

void
FlowPool::advance(Flow* flow)
{
    if (flow->next_hop < flow->hop_count) {
        Link* hop = flow->hops[flow->next_hop++];
        // Two raw pointers: inline in the kernel's callable, so the
        // hot per-hop path stays allocation-free.
        hop->transfer(flow->bytes, [this, flow] { advance(flow); });
        return;
    }
    const sim::Time arrival = simulator_->now();
    if (flow->meter != nullptr)
        flow->meter->add(arrival, static_cast<double>(flow->bytes));
    --live_;  // The hops are done; only the delivery tail is left.
    if (flow->dst_rpc != nullptr) {
        // The record carries the callback through the RPC stage.
        flow->dst_rpc->process(
            [this, flow] { deliver(flow, simulator_->now()); });
        return;
    }
    deliver(flow, arrival);
}

void
FlowPool::deliver(Flow* flow, sim::Time when)
{
    DeliveryCallback done = std::move(flow->done);
    release(flow);  // Back on the freelist before the callback runs.
    if (done)
        done(when);
}

void
FlowPool::launch(RpcProcessor* src_rpc, std::initializer_list<Link*> hops,
                 std::uint64_t bytes, sim::RateMeter* meter,
                 RpcProcessor* dst_rpc, DeliveryCallback done)
{
    assert(hops.size() <= static_cast<std::size_t>(kMaxHops));
    Flow* flow = acquire();
    int n = 0;
    for (Link* hop : hops)
        flow->hops[n++] = hop;
    flow->hop_count = n;
    flow->next_hop = 0;
    flow->bytes = bytes;
    flow->meter = meter;
    flow->dst_rpc = dst_rpc;
    flow->done = std::move(done);
    if (src_rpc != nullptr) {
        src_rpc->process([this, flow] { advance(flow); });
        return;
    }
    advance(flow);
}

}  // namespace hivemind::net
