#include "sim/swarm_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace hivemind::sim {

SwarmRuntime::SwarmRuntime(int shards)
{
    assert(shards >= 1);
    const std::size_t n = static_cast<std::size_t>(shards);
    sims_.reserve(n);
    for (int i = 0; i < shards; ++i)
        sims_.push_back(std::make_unique<Simulator>());
    mail_.resize(n * n);
    staged_.resize(n);
    lat_.assign(n * n, Simulator::kNever);
    horizons_.assign(n, Simulator::kNever);
    windows_.assign(n, 0);
    if (shards > 1) {
        start_ = std::make_unique<std::barrier<>>(shards);
        finish_ = std::make_unique<std::barrier<>>(shards);
        threads_.reserve(n - 1);
        for (int i = 1; i < shards; ++i)
            threads_.emplace_back([this, i] { worker(i); });
    }
}

SwarmRuntime::~SwarmRuntime()
{
    if (!threads_.empty()) {
        quit_ = true;
        start_->arrive_and_wait();  // Release workers into the quit check.
        threads_.clear();           // jthread joins.
    }
}

void
SwarmRuntime::worker(int i)
{
    for (;;) {
        start_->arrive_and_wait();
        if (quit_)
            return;
        sims_[static_cast<std::size_t>(i)]->run_until(
            windows_[static_cast<std::size_t>(i)]);
        finish_->arrive_and_wait();
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
    Envelope e;
    e.when = when;
    e.origin = origin;
    e.fn = std::move(fn);
    mail_[static_cast<std::size_t>(src) * sims_.size() +
          static_cast<std::size_t>(dst)]
        .push_back(std::move(e));
}

Time
SwarmRuntime::staged_min(std::size_t dst) const
{
    Time m = Simulator::kNever;
    for (const Envelope& e : staged_[dst])
        m = std::min(m, e.when);
    return m;
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
    // horizon s_i = min(next_time, staged_min) (filled in by
    // run_until) bounds every send shard i can make on its own: any
    // pending event may send, and a staged envelope is a future event
    // its destination kernel does not know about yet. That alone is
    // unsound: within one epoch shard i can react to a message from
    // shard j and reply, so i's effective horizon must include sends
    // *provoked* by every other shard's sends. Closing the raw
    // horizons under
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
SwarmRuntime::drain()
{
    const std::size_t n = sims_.size();
    for (std::size_t dst = 0; dst < n; ++dst) {
        std::size_t total = 0;
        for (std::size_t src = 0; src < n; ++src)
            total += mail_[src * n + dst].size();
        if (total == 0)
            continue;
        auto& staged = staged_[dst];
        staged.reserve(staged.size() + total);
        for (std::size_t src = 0; src < n; ++src) {
            auto& box = mail_[src * n + dst];
            for (Envelope& e : box) {
                // Conservative-sync contract: the channel latency
                // keeps every delivery strictly beyond the window the
                // destination just ran.
                assert(e.when > windows_[dst]);
                staged.push_back(std::move(e));
            }
            box.clear();
        }
    }
}

std::uint64_t
SwarmRuntime::release_staged()
{
    const std::size_t n = sims_.size();
    std::uint64_t released = 0;
    for (std::size_t dst = 0; dst < n; ++dst) {
        auto& staged = staged_[dst];
        if (staged.empty())
            continue;
        const Time window = windows_[dst];
        merge_.clear();
        merge_.reserve(staged.size());
        std::size_t keep = 0;
        bool sorted = true;
        for (Envelope& e : staged) {
            if (e.when > window) {
                staged[keep++] = std::move(e);
                continue;
            }
            if (sorted && !merge_.empty()) {
                const Envelope& prev = merge_.back();
                if (e.when < prev.when ||
                    (e.when == prev.when && e.origin < prev.origin))
                    sorted = false;
            }
            merge_.push_back(std::move(e));
        }
        staged.resize(keep);
        if (merge_.empty())
            continue;
        // Stable by (when, origin): per-actor FIFO survives (an
        // actor's posts are staged in post order), and the key does
        // not depend on which shard the actor lives on, so the
        // delivery order is invariant across shard counts. The common
        // case — envelopes already staged in key order — skips the
        // sort outright: a stable sort of a sorted range is the
        // identity. Note even a single contributing mailbox is NOT
        // automatically key-sorted (two actors can post at the same
        // time in descending origin order), which is why this is a
        // runtime check and not a mailbox-count check.
        if (!sorted)
            std::stable_sort(merge_.begin(), merge_.end(),
                             [](const Envelope& a, const Envelope& b) {
                                 return a.when != b.when
                                            ? a.when < b.when
                                            : a.origin < b.origin;
                             });
        Simulator& s = *sims_[dst];
        for (Envelope& e : merge_) {
            // A release behind the destination clock means a window
            // overshot an in-flight delivery — a causality violation
            // in compute_windows, never a legal state.
            assert(e.when >= s.now());
            s.schedule_envelope_at(e.when, e.origin, std::move(e.fn));
            ++released;
        }
    }
    return released;
}

SwarmRuntime::Report
SwarmRuntime::run_until(Time until)
{
    return run_until(until, {});
}

SwarmRuntime::Report
SwarmRuntime::run_until(Time until, const std::function<bool()>& stop)
{
    Report report;
    std::uint64_t before = 0;
    for (const auto& s : sims_)
        before += s->executed();

    // Mail posted before the run (wiring-time registrations, initial
    // assignments) joins the staging buffers up front; the horizon
    // below accounts for staged deliveries, so the first window can
    // never leap past them.
    std::fill(windows_.begin(), windows_.end(), Time{-1});
    drain();

    for (;;) {
        Time h = Simulator::kNever;
        for (std::size_t i = 0; i < sims_.size(); ++i) {
            horizons_[i] = std::min(sims_[i]->next_time(), staged_min(i));
            h = std::min(h, horizons_[i]);
        }
        if (h == Simulator::kNever || h > until)
            break;

        compute_windows(until, h);
        report.forwarded += release_staged();

        if (threads_.empty()) {
            sims_[0]->run_until(windows_[0]);
        } else {
            start_->arrive_and_wait();
            sims_[0]->run_until(windows_[0]);
            finish_->arrive_and_wait();
        }
        ++report.epochs;
        report.horizon =
            *std::max_element(windows_.begin(), windows_.end());
        drain();
        if (stop && stop())
            break;
    }

    std::uint64_t after = 0;
    for (const auto& s : sims_)
        after += s->executed();
    report.executed = after - before;
    return report;
}

std::size_t
SwarmRuntime::pending() const
{
    std::size_t n = 0;
    for (const auto& s : sims_)
        n += s->pending();
    for (const auto& box : mail_)
        n += box.size();
    for (const auto& staged : staged_)
        n += staged.size();
    return n;
}

}  // namespace hivemind::sim
