#pragma once

/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The Simulator owns a time-ordered event set. Components schedule
 * closures to run at future simulated times; the kernel pops them in
 * (time, insertion-order) order so that ties break deterministically.
 * This is the substrate every HiveMind model (network, cloud, edge
 * devices) is built on, mirroring the validated event-driven simulator
 * the paper uses for its scalability studies (Sec. 5.6).
 *
 * Internals (see DESIGN.md "Simulation kernel"):
 *  - Callbacks live in a generation-tagged slot slab: a free-listed
 *    vector of slots holding a move-only InlineFn each. EventId packs
 *    {generation, slot index}, so cancel() and callback lookup are
 *    O(1) array operations — no hashing, no per-event heap allocation
 *    for small captures.
 *  - Near-future events ride a two-level hierarchical timer wheel
 *    (the fast lane for the short recurring timers that dominate
 *    swarm runs: heartbeats, link ticks, battery drain); far-future
 *    or irregular events fall back to a binary heap. Arrivals for a
 *    tick the cursor already reached append to the sorted ready run
 *    when they sort after its tail and otherwise enter a reusable
 *    same-tick min-heap beside it. The merge rule
 *    that preserves determinism: whichever lane, the next event
 *    executed is always the globally smallest (time, seq) pair, and
 *    seq is assigned once, at schedule time.
 *  - Cancellation is lazy in both lanes (stale generation tags are
 *    skipped on pop), but the heap compacts itself whenever cancelled
 *    entries outnumber live ones, so long-lived simulations cannot
 *    accumulate unbounded tombstones.
 */

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace hivemind::sim {

/**
 * Handle used to cancel a scheduled event.
 *
 * Packs {generation:32, slot:32}. Slots are recycled after an event
 * runs or is cancelled, but each recycle bumps the slot's generation,
 * so a stale handle can never cancel the slot's next tenant. 0 is
 * never a valid id (generations start at 1).
 */
using EventId = std::uint64_t;

/** Kernel tuning knobs (mainly for tests and benchmarks). */
struct KernelConfig
{
    /**
     * Route near-future events through the timer wheel. Disabling
     * forces every event onto the binary heap; execution order is
     * identical either way (the determinism tests assert this).
     */
    bool use_timer_wheel = true;
};

/**
 * Discrete-event simulator with deterministic event ordering.
 *
 * Events scheduled for the same timestamp run in the order they were
 * scheduled. Cancellation is lazy: cancelled events stay queued but
 * are skipped when popped (the heap lane additionally compacts when
 * cancelled entries outnumber live ones).
 */
class Simulator
{
  public:
    /** Sentinel returned by next_time() when no live event is pending. */
    static constexpr Time kNever = INT64_MAX;

    Simulator() = default;
    explicit Simulator(const KernelConfig& config) : config_(config) {}

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Timestamp of the earliest pending live event, or kNever.
     *
     * Non-const because peeking lazily drops cancelled tombstones and
     * stages wheel buckets. This is the primitive the sharded
     * SwarmRuntime uses to compute conservative lookahead windows.
     */
    Time next_time()
    {
        const Entry* w = config_.use_timer_wheel ? wheel_peek() : nullptr;
        const Entry* h = heap_peek();
        if (w && h)
            return entry_earlier(*w, *h) ? w->when : h->when;
        if (w)
            return w->when;
        if (h)
            return h->when;
        return kNever;
    }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * Scheduling in the past is clamped to now(): the event runs at the
     * current time, after already-pending events for that time.
     *
     * @return an EventId usable with cancel().
     *
     * Defined inline (with the rest of the schedule/execute hot path)
     * so the ping-pong pattern — schedule one event, run it, repeat —
     * compiles down to slab and vector operations in the caller's
     * loop with no cross-TU calls.
     */
    EventId schedule_at(Time when, InlineFn fn)
    {
        const bool to_heap = pick_lane(when);
        const EventId id = alloc_slot(std::move(fn), to_heap);
        commit_entry(when, id, to_heap);
        return id;
    }

    /**
     * Schedule any `void()` callable. This overload builds the
     * callable directly inside its slab slot — no InlineFn temporary,
     * no buffer move — and is what lambda call sites resolve to.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    EventId schedule_at(Time when, F&& f)
    {
        const bool to_heap = pick_lane(when);
        std::uint32_t index;
        Slot& s = grab_slot(index);
        s.fn.assign(std::forward<F>(f));
        const EventId id = finish_slot(s, index, to_heap);
        commit_entry(when, id, to_heap);
        return id;
    }

    /** Schedule @p fn to run @p delay after the current time. */
    EventId schedule_in(Time delay, InlineFn fn)
    {
        return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
    }

    /** Delay-relative variant of the emplacing overload above. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    EventId schedule_in(Time delay, F&& f)
    {
        return schedule_at(now_ + (delay < 0 ? 0 : delay),
                           std::forward<F>(f));
    }

    /**
     * Re-arm the currently executing callback to run again at @p when.
     *
     * Only valid from inside an event callback. The running closure is
     * relocated into a fresh slab slot (an inline buffer copy or a
     * heap-cell pointer steal — never a new allocation), so recurring
     * tasks re-arm with zero per-tick heap traffic. After the call the
     * callback's captures may have been moved from: for closures whose
     * captures are not trivially relocatable, rearm_at() must be the
     * last statement that touches them.
     *
     * @return the new EventId, or 0 when no callback is executing (or
     *         the running closure was already re-armed this tick).
     */
    EventId rearm_at(Time when)
    {
        if (!running_ || !*running_)
            return 0;
        const bool to_heap = pick_lane(when);
        const EventId id = alloc_slot(std::move(*running_), to_heap);
        commit_entry(when, id, to_heap);
        return id;
    }

    /** Delay-relative rearm_at(). */
    EventId rearm_in(Time delay)
    {
        return rearm_at(now_ + (delay < 0 ? 0 : delay));
    }

    /**
     * Schedule a message-envelope delivery.
     *
     * Identical to schedule_at except for the same-time tie-break,
     * which the SwarmRuntime needs because the moment an envelope
     * reaches the kernel depends on the shard count: cross-shard
     * envelopes arrive at epoch boundaries, same-shard ones the
     * instant the sender computes the arrival time. The entry's seq
     * is therefore composed as
     *
     *     [envelope class bit | origin | shared counter]
     *
     * so at equal times (a) every envelope runs after every locally
     * scheduled event (class bit), (b) envelopes order by the
     * sender's shard-agnostic @p origin regardless of schedule order
     * (matching the staging buffer's (when, origin) sort), and
     * (c) same-origin envelopes keep FIFO order (shared counter).
     * @p origin must fit kEnvelopeOriginBits; the counter has
     * 63 - kEnvelopeOriginBits bits before it would carry into the
     * origin field (~2.7e11 events — far past any run here).
     */
    EventId schedule_envelope_at(Time when, std::uint64_t origin,
                                 InlineFn fn)
    {
        assert(origin < (1ull << kEnvelopeOriginBits));
        seq_bias_ =
            kEnvelopeSeqClass | (origin << (63 - kEnvelopeOriginBits));
        const EventId id = schedule_at(when, std::move(fn));
        seq_bias_ = 0;
        return id;
    }

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /**
     * Run until the queue drains or simulated time would exceed
     * @p until (inclusive). Events at exactly @p until still run.
     *
     * @return number of events executed.
     */
    std::uint64_t run_until(Time until);

    /** Run until the event queue is empty. */
    std::uint64_t run() { return run_until(kMaxTime); }

    /** Execute at most one pending event. @return false if none left. */
    bool step() { return execute_next(kMaxTime); }

    /** Request that run()/run_until() return after the current event. */
    void stop() { stopped_ = true; }

    /** Number of live (scheduled, not cancelled) pending events. */
    std::size_t pending() const { return live_; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /// @name Introspection for tests and benchmarks.
    /// @{
    /** Entries currently in the heap lane (live + cancelled). */
    std::size_t heap_entries() const { return heap_.size(); }
    /** Entries currently in the wheel lane (live + cancelled). */
    std::size_t wheel_entries() const { return wheel_count_; }
    /** High-water mark of concurrently pending events (slab size). */
    std::size_t slab_slots() const { return slots_.size(); }
    /// @}

  private:
    static constexpr Time kMaxTime = INT64_MAX;

    // Timer-wheel geometry: level 0 buckets span 2^17 ns (~131 us);
    // level 1 buckets span one full level-0 lap (2^25 ns, ~33.5 ms),
    // for a total wheel horizon of 2^33 ns (~8.6 s) past the cursor.
    // Anything farther out (or scheduled while the wheel lane is
    // disabled) goes to the binary heap.
    static constexpr int kBucketBits = 8;
    static constexpr int kBuckets = 1 << kBucketBits;
    static constexpr int kGranularityBits = 17;
    static constexpr std::uint64_t kBucketMask = kBuckets - 1;

    struct Entry
    {
        Time when;
        std::uint64_t seq;
        EventId id;
    };

    /** Heap comparator: max-heap on "later", i.e. min (when, seq) top. */
    struct EntryLater
    {
        bool operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** One slab slot: the callback plus its reuse generation. */
    struct Slot
    {
        InlineFn fn;
        std::uint32_t gen = 1;
        std::uint32_t next_free = 0;
        bool live = false;
        bool in_heap = false;  ///< Lane tag for cancel bookkeeping.
    };

    /** Entries per pooled bucket chunk (a power of two). */
    static constexpr std::uint32_t kChunkEntries = 32;
    static constexpr std::uint32_t kNoChunk = 0xffffffffu;

    /**
     * A fixed-size piece of one bucket's unsorted entries past its
     * first. Every bucket of both levels chains its overflow from one
     * free-listed pool. Every chunk of a chain but the last is full,
     * so the bucket's size says how full the last one is.
     */
    struct Chunk
    {
        std::uint32_t next = kNoChunk;
        std::array<Entry, kChunkEntries> entries;
    };

    /**
     * A wheel bucket: its first entry inline (most buckets of a sparse
     * run hold one event and never touch the pool), the rest in a
     * chain of pooled chunks appended at the tail.
     */
    struct Bucket
    {
        Entry first{};
        std::uint32_t size = 0;  ///< Entries, cancelled ones included.
        std::uint32_t head = kNoChunk;
        std::uint32_t tail = kNoChunk;
    };

    /** Entries in chunk @p c of bucket @p b's chain. */
    static std::uint32_t chunk_used(const Bucket& b, std::uint32_t c)
    {
        return c == b.tail ? ((b.size - 2) & (kChunkEntries - 1)) + 1
                           : kChunkEntries;
    }

    /** One wheel level: 256 unsorted buckets + occupancy bitmap. */
    struct Level
    {
        std::array<Bucket, kBuckets> buckets;
        std::array<std::uint64_t, kBuckets / 64> occupied{};
    };

    static std::uint32_t slot_of(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }
    static std::uint32_t gen_of(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    bool slot_live(EventId id) const
    {
        const Slot& s = slots_[slot_of(id)];
        return s.live && s.gen == gen_of(id);
    }

    /** Ascending (when, seq): the order events must execute in. */
    static bool entry_earlier(const Entry& a, const Entry& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /**
     * Clamp @p when to now(), re-anchor an idle wheel at the present,
     * and pick the lane: false = timer wheel, true = binary heap
     * (beyond the wheel horizon, or the wheel lane is disabled).
     */
    bool pick_lane(Time& when)
    {
        if (when < now_)
            when = now_;
        if (!config_.use_timer_wheel)
            return true;
        if (wheel_count_ == 0) {
            // Wheel idle: re-anchor the horizon at the present so
            // near-future events keep taking the fast lane even after
            // a heap-only stretch advanced now_ past the cursor.
            ready_.clear();
            ready_pos_ = 0;
            const std::uint64_t now_tick =
                static_cast<std::uint64_t>(now_) >> kGranularityBits;
            if (now_tick > cur_tick_)
                cur_tick_ = now_tick;
        }
        const std::uint64_t tick =
            static_cast<std::uint64_t>(when) >> kGranularityBits;
        return tick > cur_tick_ &&
               (tick >> kBucketBits) != (cur_tick_ >> kBucketBits) &&
               (tick >> kBucketBits) - (cur_tick_ >> kBucketBits) >=
                   static_cast<std::uint64_t>(kBuckets);
    }

    /** Pop a free slot (or grow the slab); callback not yet set. */
    Slot& grab_slot(std::uint32_t& index)
    {
        if (free_head_ != kNoFree) {
            index = free_head_;
            free_head_ = slots_[index].next_free;
        } else {
            index = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        return slots_[index];
    }

    /** Mark a grabbed slot live and produce its generation-tagged id. */
    EventId finish_slot(Slot& s, std::uint32_t index, bool in_heap)
    {
        s.live = true;
        s.in_heap = in_heap;
        ++live_;
        return (static_cast<EventId>(s.gen) << 32) | index;
    }

    EventId alloc_slot(InlineFn&& fn, bool in_heap)
    {
        std::uint32_t index;
        Slot& s = grab_slot(index);
        s.fn = std::move(fn);
        return finish_slot(s, index, in_heap);
    }

    /** Assign the event's (when, seq) and enqueue it on its lane. */
    void commit_entry(Time when, EventId id, bool to_heap)
    {
        Entry e{when, seq_bias_ | next_seq_++, id};
        if (to_heap)
            heap_push(e);
        else
            wheel_insert(e);
    }

    void release_slot(std::uint32_t index)
    {
        Slot& s = slots_[index];
        s.fn.reset();
        s.live = false;
        if (++s.gen == 0)
            s.gen = 1;  // Keep EventId 0 forever invalid across wraps.
        s.next_free = free_head_;
        free_head_ = index;
        --live_;
    }

    void heap_push(Entry e)
    {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), EntryLater{});
    }

    void heap_compact();
    /** Out-of-line part of heap_peek: pop stale tops, find the head. */
    const Entry* heap_peek_slow();

    /** Live heap head, lazily dropping stale tops. nullptr if none. */
    const Entry* heap_peek()
    {
        if (heap_.empty())
            return nullptr;
        if (slot_live(heap_.front().id))
            return &heap_.front();
        return heap_peek_slow();
    }

    /** Out-of-line insert: the same-tick lane and bucket routing. */
    void wheel_insert_slow(Entry e, std::uint64_t tick);

    void wheel_insert(Entry e)
    {
        const std::uint64_t tick =
            static_cast<std::uint64_t>(e.when) >> kGranularityBits;
        // Hot case: schedule-soon-run-soon chains arrive in
        // (when, seq) order and append to the sorted ready run.
        if (tick <= cur_tick_ &&
            (ready_.empty() || entry_earlier(ready_.back(), e))) {
            ++wheel_count_;
            ready_.push_back(e);
            return;
        }
        wheel_insert_slow(e, tick);
    }

    /** Append @p e to bucket @p b, taking a pooled chunk if needed. */
    void bucket_push(Bucket& b, const Entry& e);
    /** Return bucket @p b's chain to the chunk pool; b becomes empty. */
    void bucket_free(Bucket& b);
    /** Drop @p b's cancelled entries; @return the live entries left. */
    std::size_t bucket_compact(Bucket& b);

    /** Stage the next occupied bucket into ready_; false if empty. */
    bool wheel_advance();
    /** Out-of-line wheel head: skip stale heads, advance the cursor. */
    const Entry* wheel_peek_slow();
    void wheel_compact();

    /**
     * Live wheel head: the smaller of the ready run's head and the
     * same-tick lane's top, advancing the cursor as needed.
     */
    const Entry* wheel_peek()
    {
        // Fast path: both heads live (the lane is usually empty).
        if (ready_pos_ < ready_.size()) {
            const Entry& r = ready_[ready_pos_];
            if (slot_live(r.id)) {
                if (late_.empty())
                    return &r;
                const Entry& l = late_.front();
                if (slot_live(l.id))
                    return entry_earlier(l, r) ? &l : &r;
            }
        }
        return wheel_peek_slow();
    }

    /**
     * Consume the wheel head @p e that wheel_peek returned: the lane's
     * top when it points at late_'s first element, else the ready
     * run's head.
     */
    void wheel_pop(const Entry* e)
    {
        --wheel_count_;
        if (e == late_.data()) {
            std::pop_heap(late_.begin(), late_.end(), EntryLater{});
            late_.pop_back();
        } else {
            ++ready_pos_;
        }
    }

    /** Execute one event if (peeked) min time <= until. */
    bool execute_next(Time until)
    {
        const Entry* w = config_.use_timer_wheel ? wheel_peek() : nullptr;
        const Entry* h = heap_peek();
        // Lane merge rule: always execute the globally smallest
        // (time, seq) pair; seq was assigned once at schedule time, so
        // cross-lane ties are impossible and order is deterministic.
        bool from_wheel;
        if (w && h)
            from_wheel = entry_earlier(*w, *h);
        else
            from_wheel = w != nullptr;
        const Entry* next = from_wheel ? w : h;
        if (!next || next->when > until)
            return false;
        const Entry e = *next;
        if (from_wheel) {
            wheel_pop(next);
        } else {
            std::pop_heap(heap_.begin(), heap_.end(), EntryLater{});
            heap_.pop_back();
        }
        now_ = e.when;
        InlineFn fn = std::move(slots_[slot_of(e.id)].fn);
        release_slot(slot_of(e.id));
        if (fn) {
            running_ = &fn;
            fn();
            running_ = nullptr;
        }
        ++executed_;
        return true;
    }

    /** Same-time tie class for envelope deliveries (see above). */
    static constexpr std::uint64_t kEnvelopeSeqClass = 1ull << 63;
    /** Origin field width inside an envelope seq (see above). */
    static constexpr int kEnvelopeOriginBits = 25;

    KernelConfig config_;
    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    /** OR-ed into the committed seq (schedule_envelope_at only). */
    std::uint64_t seq_bias_ = 0;
    std::uint64_t executed_ = 0;
    bool stopped_ = false;

    // --- Slab ---
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNoFree;
    std::size_t live_ = 0;
    static constexpr std::uint32_t kNoFree = 0xffffffffu;

    // --- Heap lane ---
    std::vector<Entry> heap_;
    std::size_t heap_dead_ = 0;

    // --- Wheel lane ---
    std::array<Level, 2> levels_;
    /** Level-0 tick (time >> kGranularityBits) the cursor sits on. */
    std::uint64_t cur_tick_ = 0;
    /**
     * Wheel entries with tick <= cur_tick_ live in two lanes: ready_
     * is a sorted run consumed from ready_pos_, and late_ is a min-heap
     * (EntryLater order) of arrivals that sorted before the run's tail
     * when they came. Buckets hold only ticks past the cursor.
     */
    std::vector<Entry> ready_;
    std::size_t ready_pos_ = 0;
    std::vector<Entry> late_;
    /**
     * The bucket chunk pool. A drained or cascaded bucket returns its
     * chain to the free list, so the pool holds what the wheel's
     * buckets hold at their peak, not a buffer per bucket sized for
     * the busiest one, and a fresh kernel grows one vector instead of
     * every bucket's own.
     */
    std::vector<Chunk> chunks_;
    std::uint32_t free_chunk_ = kNoChunk;
    /** Entries in ready_ + late_ + buckets, including cancelled ones. */
    std::size_t wheel_count_ = 0;
    std::size_t wheel_dead_ = 0;

    /** Closure currently executing (for rearm_at), else nullptr. */
    InlineFn* running_ = nullptr;
};

/**
 * Re-arm handle passed to recurring() bodies.
 *
 * Calling again_in()/again_at() relocates the running closure into a
 * fresh slab slot (Simulator::rearm_at), so a recurring task re-arms
 * with no per-tick heap allocation: small bodies stay inline in the
 * slot, oversized bodies keep reusing the single heap cell allocated
 * when the chain started. Not re-arming ends the chain — the closure
 * (and its captures) are destroyed when the invocation returns, which
 * is what frees the state the old shared_ptr-based recurring() leaked
 * behind strong self-cycles.
 *
 * Because re-arming moves the closure, again_*() must be the last
 * statement of the body that touches its captures.
 */
class Recur
{
  public:
    explicit Recur(Simulator& simulator) : simulator_(&simulator) {}

    /** Run this body again @p delay after now. */
    EventId again_in(Time delay) const { return simulator_->rearm_in(delay); }

    /** Run this body again at absolute time @p when. */
    EventId again_at(Time when) const { return simulator_->rearm_at(when); }

    /** The kernel this task runs on. */
    Simulator& sim() const { return *simulator_; }

    /** Current simulated time (shorthand for sim().now()). */
    Time now() const { return simulator_->now(); }

  private:
    Simulator* simulator_;
};

namespace detail {

/** The slab-resident wrapper recurring() schedules. */
template <typename Body>
struct RecurringTask
{
    Simulator* simulator;
    Body body;

    void operator()() { body(Recur{*simulator}); }
};

}  // namespace detail

/**
 * Schedule @p body as a self-rescheduling task, first run after
 * @p first_delay.
 *
 * @p body is `void(const Recur&)`; calling `self.again_in(dt)` (or
 * again_at) re-arms it for another round, returning without re-arming
 * ends the chain and frees the captures. The body lives directly in
 * the event-kernel slab slot and re-arms by relocation, so steady-state
 * ticking allocates nothing.
 *
 * @return the EventId of the first arming (cancellable like any event;
 *         later re-armings produce fresh ids returned by again_*()).
 */
template <typename Body>
EventId recurring(Simulator& simulator, Time first_delay, Body body)
{
    return simulator.schedule_in(
        first_delay,
        detail::RecurringTask<Body>{&simulator, std::move(body)});
}

}  // namespace hivemind::sim
