#include "sim/swarm_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <utility>

namespace hivemind::sim {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

SwarmRuntime::SwarmRuntime(int shards)
{
    assert(shards >= 1);
    const std::size_t n = static_cast<std::size_t>(shards);
    sims_.reserve(n);
    for (int i = 0; i < shards; ++i)
        sims_.push_back(std::make_unique<Simulator>());
    state_.resize(n);
    for (auto& parity : mail_)
        parity.resize(n * n);
    lat_.assign(n * n, Simulator::kNever);
    horizons_.assign(n, Simulator::kNever);
    windows_.assign(n, 0);
    if (shards > 1) {
        sync_ = std::make_unique<std::barrier<Plan>>(shards, Plan{this});
        threads_.reserve(n - 1);
        for (int i = 1; i < shards; ++i)
            threads_.emplace_back([this, i] { worker(i); });
    }
}

SwarmRuntime::~SwarmRuntime()
{
    if (!threads_.empty()) {
        quit_ = true;
        sync_->arrive_and_wait();  // Release workers into the quit check.
        threads_.clear();          // jthread joins.
    }
}

void
SwarmRuntime::worker(int i)
{
    // Between runs a worker waits here for the caller's next
    // run_until() (or the destructor) to complete the phase.
    for (;;) {
        sync_->arrive_and_wait();
        if (step_ == Step::quit)
            return;
        if (step_ == Step::run)
            epoch(i);
    }
}

void
SwarmRuntime::declare_channel(int src, int dst, Time min_latency)
{
    assert(min_latency >= 1);
    Time& cell = lat_[static_cast<std::size_t>(src) * sims_.size() +
                      static_cast<std::size_t>(dst)];
    cell = std::min(cell, min_latency);
    lookahead_ = std::min(lookahead_, min_latency);
}

void
SwarmRuntime::post(int src, int dst, Time when, std::uint64_t origin,
                   InlineFn fn)
{
    // A shard never needs conservative protection from itself: the
    // kernel already orders intra-shard causality, so in adaptive
    // mode a self-post goes straight into the owner kernel (we are on
    // its thread — src == dst). The origin-aware envelope seq makes
    // the same-time merge order identical to the staged path's
    // (when, origin) sort, so a message's execution slot never
    // depends on which route delivered it. Global-lookahead mode
    // keeps every post on the mailbox path (the pre-adaptive
    // behavior, byte for byte).
    if (adaptive_ && src == dst) {
        sims_[static_cast<std::size_t>(dst)]->schedule_envelope_at(
            when, origin, std::move(fn));
        return;
    }
    Mailbox& m = mail_[static_cast<std::size_t>(post_parity_)]
                      [static_cast<std::size_t>(src) * sims_.size() +
                       static_cast<std::size_t>(dst)];
    m.min = std::min(m.min, when);
    Envelope& e = m.box.emplace_back();
    e.when = when;
    e.origin = origin;
    e.fn = std::move(fn);
}

void
SwarmRuntime::compute_windows(Time until, Time h)
{
    const std::size_t n = sims_.size();
    if (!adaptive_) {
        Time window = until;
        if (lookahead_ != Simulator::kNever) {
            const Time slack = lookahead_ - 1;
            window = (h > Simulator::kNever - slack) ? Simulator::kNever
                                                     : h + slack;
            window = std::min(window, until);
        }
        std::fill(windows_.begin(), windows_.end(), window);
        return;
    }
    // Per-pair windows from each shard's *effective* horizon. The raw
    // horizon s_i = min(next_time, earliest staged or mailed delivery)
    // (filled in by plan) bounds every send shard i can make on its
    // own: any pending event may send, and an undelivered envelope is
    // a future event its destination kernel does not know about yet.
    // That alone is unsound: within one epoch shard i can react to a
    // message from shard j and reply, so i's effective horizon must
    // include sends *provoked* by every other shard's sends. Closing
    // the raw horizons under
    //     s_i <- min(s_i, s_j + L(j, i))
    // (the conservative-sync LBTS relaxation; a shortest-path fixpoint
    // over the channel graph, reached in < n sweeps since latencies
    // are positive) accounts for reaction chains of any depth. Then
    //     W_j = min(until, min over i != j of s_i + L(i, j) - 1).
    // s_i >= H and L >= 1 keep W_j >= H, so the shard holding the
    // global horizon always executes (progress). A destination with
    // no declared incoming channel is unconstrained.
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t j = 0; j < n; ++j) {
            const Time s = horizons_[j];
            if (s == Simulator::kNever)
                continue;
            for (std::size_t i = 0; i < n; ++i) {
                const Time lat = lat_[j * n + i];
                if (lat == Simulator::kNever ||
                    s > Simulator::kNever - lat)
                    continue;
                if (s + lat < horizons_[i]) {
                    horizons_[i] = s + lat;
                    changed = true;
                }
            }
        }
    }
    for (std::size_t j = 0; j < n; ++j) {
        Time w = until;
        for (std::size_t i = 0; i < n; ++i) {
            if (i == j)
                continue;  // Self-posts bypass the mailbox (post()).
            const Time lat = lat_[i * n + j];
            if (lat == Simulator::kNever)
                continue;
            const Time s = horizons_[i];
            if (s == Simulator::kNever || s > Simulator::kNever - lat)
                continue;  // No bound from this source (saturates).
            w = std::min(w, s + lat - 1);
        }
        windows_[j] = w;
    }
}

void
SwarmRuntime::release(int i)
{
    const std::size_t n = sims_.size();
    const std::size_t dst = static_cast<std::size_t>(i);
    ShardState& st = state_[dst];
    const Time window = windows_[dst];
    std::vector<Envelope>& merge = st.merge;
    merge.clear();
    bool sorted = true;
    Time staged_min = Simulator::kNever;
    auto take = [&](Envelope& e) {
        if (sorted && !merge.empty()) {
            const Envelope& prev = merge.back();
            if (e.when < prev.when ||
                (e.when == prev.when && e.origin < prev.origin))
                sorted = false;
        }
        merge.push_back(std::move(e));
    };
    // Earlier epochs' leftovers first, then last epoch's mail in
    // source order: the order the envelopes were posted in, per actor.
    std::size_t keep = 0;
    for (Envelope& e : st.staged) {
        if (e.when > window) {
            staged_min = std::min(staged_min, e.when);
            st.staged[keep++] = std::move(e);
        } else {
            take(e);
        }
    }
    st.staged.resize(keep);
    std::vector<Mailbox>& inbox =
        mail_[static_cast<std::size_t>(post_parity_ ^ 1)];
    for (std::size_t src = 0; src < n; ++src) {
        Mailbox& m = inbox[src * n + dst];
        if (m.box.empty())
            continue;
        for (Envelope& e : m.box) {
            // Conservative-sync contract: the channel latency keeps
            // every delivery strictly beyond the window the
            // destination last ran.
            assert(e.when > st.ran_to);
            if (e.when > window) {
                staged_min = std::min(staged_min, e.when);
                st.staged.push_back(std::move(e));
            } else {
                take(e);
            }
        }
        m.box.clear();
        m.min = Simulator::kNever;
    }
    st.staged_min = staged_min;
    if (merge.empty())
        return;
    // Stable by (when, origin): per-actor FIFO survives (an actor's
    // posts reach merge in post order), and the key does not depend
    // on which shard the actor lives on, so the delivery order is
    // invariant across shard counts. The common case — envelopes
    // already in key order — skips the sort outright: a stable sort
    // of a sorted range is the identity. Note even a single
    // contributing mailbox is NOT automatically key-sorted (two
    // actors can post at the same time in descending origin order),
    // which is why this is a runtime check and not a mailbox-count
    // check.
    if (!sorted)
        std::stable_sort(merge.begin(), merge.end(),
                         [](const Envelope& a, const Envelope& b) {
                             return a.when != b.when ? a.when < b.when
                                                     : a.origin < b.origin;
                         });
    Simulator& s = *sims_[dst];
    for (Envelope& e : merge) {
        // A release behind the destination clock means a window
        // overshot an in-flight delivery — a causality violation in
        // compute_windows, never a legal state.
        assert(e.when >= s.now());
        s.schedule_envelope_at(e.when, e.origin, std::move(e.fn));
    }
    st.forwarded += merge.size();
}

void
SwarmRuntime::epoch(int i)
{
    const Clock::time_point t0 = Clock::now();
    const std::size_t k = static_cast<std::size_t>(i);
    ShardState& st = state_[k];
    Simulator& s = *sims_[k];
    release(i);
    const std::uint64_t before = s.executed();
    s.run_until(windows_[k]);
    st.next = s.next_time();
    st.ran_to = windows_[k];
    st.load.events += s.executed() - before;
    st.load.busy_s += seconds_since(t0);
}

void
SwarmRuntime::plan()
{
    if (quit_) {
        step_ = Step::quit;
        return;
    }
    const Clock::time_point t0 = Clock::now();
    step_ = Step::idle;
    const bool first = first_plan_;
    first_plan_ = false;
    if (!first)
        ++report_.epochs;
    if (first || !stop_ || !(*stop_)()) {
        // Each shard's horizon: its kernel's next event, its earliest
        // staged envelope, and the earliest mail posted to it in the
        // epoch that just ended (or before the run).
        const std::size_t n = sims_.size();
        const std::vector<Mailbox>& inbox =
            mail_[static_cast<std::size_t>(post_parity_)];
        Time h = Simulator::kNever;
        for (std::size_t i = 0; i < n; ++i) {
            ShardState& st = state_[i];
            if (first)
                st.next = sims_[i]->next_time();
            Time s = std::min(st.next, st.staged_min);
            for (std::size_t src = 0; src < n; ++src)
                s = std::min(s, inbox[src * n + i].min);
            horizons_[i] = s;
            h = std::min(h, s);
        }
        if (h != Simulator::kNever && h <= until_) {
            compute_windows(until_, h);
            post_parity_ ^= 1;
            step_ = Step::run;
        }
    }
    report_.serial_s += seconds_since(t0);
}

SwarmRuntime::Report
SwarmRuntime::run_until(Time until)
{
    return run_until(until, {});
}

SwarmRuntime::Report
SwarmRuntime::run_until(Time until, const std::function<bool()>& stop)
{
    report_ = Report{};
    until_ = until;
    stop_ = stop ? &stop : nullptr;
    first_plan_ = true;
    for (ShardState& st : state_) {
        // Mail posted before the run (wiring-time registrations,
        // initial assignments) answers to no window.
        st.ran_to = -1;
        st.load = ShardLoad{};
        st.forwarded = 0;
    }
    for (;;) {
        if (sync_)
            sync_->arrive_and_wait();
        else
            plan();
        if (step_ != Step::run)
            break;
        epoch(0);
    }
    report_.shards.reserve(state_.size());
    for (const ShardState& st : state_) {
        report_.shards.push_back(st.load);
        report_.executed += st.load.events;
        report_.forwarded += st.forwarded;
    }
    stop_ = nullptr;
    return std::move(report_);
}

std::size_t
SwarmRuntime::pending() const
{
    std::size_t n = 0;
    for (const auto& s : sims_)
        n += s->pending();
    for (const auto& parity : mail_)
        for (const Mailbox& m : parity)
            n += m.box.size();
    for (const ShardState& st : state_)
        n += st.staged.size();
    return n;
}

}  // namespace hivemind::sim
