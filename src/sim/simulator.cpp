#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace hivemind::sim {

namespace {

/** Ascending (when, seq): the order events must execute in. */
struct EntryEarlier
{
    template <typename E>
    bool operator()(const E& a, const E& b) const
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }
};

}  // namespace

// ---------------------------------------------------------------------------
// Heap lane
// ---------------------------------------------------------------------------

const Simulator::Entry*
Simulator::heap_peek_slow()
{
    while (!heap_.empty()) {
        if (slot_live(heap_.front().id))
            return &heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), EntryLater{});
        heap_.pop_back();
        --heap_dead_;
    }
    return nullptr;
}

void
Simulator::heap_compact()
{
    std::erase_if(heap_,
                  [this](const Entry& e) { return !slot_live(e.id); });
    std::make_heap(heap_.begin(), heap_.end(), EntryLater{});
    heap_dead_ = 0;
}

// ---------------------------------------------------------------------------
// Wheel lane
// ---------------------------------------------------------------------------

namespace {

/** First set bit at index >= @p from in a 256-bit map, or -1. */
int
next_bit(const std::array<std::uint64_t, 4>& map, int from)
{
    if (from >= 256)
        return -1;
    int w = from >> 6;
    std::uint64_t word = map[static_cast<std::size_t>(w)] &
                         (~std::uint64_t{0} << (from & 63));
    while (true) {
        if (word)
            return (w << 6) + std::countr_zero(word);
        if (++w >= 4)
            return -1;
        word = map[static_cast<std::size_t>(w)];
    }
}

}  // namespace

void
Simulator::wheel_insert_slow(Entry e, std::uint64_t tick)
{
    ++wheel_count_;
    if (tick <= cur_tick_) {
        if (tick == cur_tick_) {
            // Out-of-order arrivals for the cursor's own tick
            // accumulate unsorted in its bucket; wheel_peek sorts and
            // merges them in one batch (bulk pre-scheduling would be
            // quadratic if each insert spliced the run directly). The
            // staging epoch tells wheel_peek a re-merge is due.
            ++stage_epoch_;
            levels_[0]
                .buckets[static_cast<std::size_t>(tick & kBucketMask)]
                .push_back(e);
            levels_[0].occupied[(tick & kBucketMask) >> 6] |=
                std::uint64_t{1} << (tick & 63);
            return;
        }
        // Cursor ran ahead of now_ hunting for the wheel head and
        // already passed this tick: splice into the sorted run. The
        // insertion point is always at or after ready_pos_ because
        // everything consumed so far had (when, seq) below any newly
        // scheduled event.
        ready_.insert(std::upper_bound(ready_.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               ready_pos_),
                                       ready_.end(), e, EntryEarlier{}),
                      e);
        return;
    }
    int level;
    std::uint64_t index;
    if ((tick >> kBucketBits) == (cur_tick_ >> kBucketBits)) {
        // Same level-0 lap (this includes tick == cur_tick_: such
        // entries accumulate unsorted in the cursor's own bucket and
        // are merged into the ready run by wheel_peek).
        level = 0;
        index = tick & kBucketMask;
    } else {
        level = 1;
        index = (tick >> kBucketBits) & kBucketMask;
    }
    levels_[static_cast<std::size_t>(level)]
        .buckets[static_cast<std::size_t>(index)]
        .push_back(e);
    levels_[static_cast<std::size_t>(level)].occupied[index >> 6] |=
        std::uint64_t{1} << (index & 63);
}

bool
Simulator::wheel_advance()
{
    // Precondition: the ready run is exhausted and the cursor's own
    // bucket is empty. Move the cursor to the next occupied level-0
    // bucket, cascading a level-1 bucket into level 0 whenever a lap
    // boundary is crossed. The cursor never passes an occupied
    // bucket, so bucket order equals time order.
    while (true) {
        if (ready_pos_ < ready_.size()) {
            // A cascade re-inserted lap-start entries and the in-order
            // ones took wheel_insert's append fast path straight into
            // the ready run (no bucket, no occupancy bit): they ARE
            // the staged head.
            return true;
        }
        Level& l0 = levels_[0];
        const int idx0 = static_cast<int>(cur_tick_ & kBucketMask);
        if (l0.occupied[static_cast<std::size_t>(idx0) >> 6] &
            (std::uint64_t{1} << (idx0 & 63))) {
            // A cascade refilled the cursor's own bucket (lap-start
            // tick): stay put, wheel_peek merges it.
            return true;
        }
        const int j = next_bit(l0.occupied, idx0 + 1);
        if (j >= 0) {
            cur_tick_ += static_cast<std::uint64_t>(j - idx0);
            // The cursor landed on an occupied bucket filled while it
            // was a future tick (no epoch bump at insert): mark the
            // staging epoch dirty so wheel_peek merges it.
            ++stage_epoch_;
            return true;  // wheel_peek merges bucket j at the cursor.
        }
        // Level-0 lap exhausted: cascade the next occupied level-1
        // bucket. Its span is exactly one level-0 lap, so every entry
        // re-inserts at level 0 (or into the ready run for the lap's
        // first tick).
        Level& l1 = levels_[1];
        const int idx1 =
            static_cast<int>((cur_tick_ >> kBucketBits) & kBucketMask);
        int k = next_bit(l1.occupied, idx1 + 1);
        std::uint64_t steps;
        if (k >= 0) {
            steps = static_cast<std::uint64_t>(k - idx1);
        } else {
            k = next_bit(l1.occupied, 0);
            if (k < 0)
                return false;  // Wheel genuinely empty.
            steps = static_cast<std::uint64_t>(k - idx1) + kBuckets;
        }
        cur_tick_ = ((cur_tick_ >> kBucketBits) + steps) << kBucketBits;
        std::vector<Entry> bucket =
            std::move(l1.buckets[static_cast<std::size_t>(k)]);
        l1.buckets[static_cast<std::size_t>(k)].clear();
        l1.occupied[static_cast<std::size_t>(k) >> 6] &=
            ~(std::uint64_t{1} << (k & 63));
        for (const Entry& e : bucket) {
            --wheel_count_;
            wheel_insert(e);
        }
    }
}

const Simulator::Entry*
Simulator::wheel_peek_slow()
{
    while (true) {
        // Merge entries that accumulated in the cursor's own bucket
        // (scheduled for the current tick, possibly while the ready
        // run was mid-consumption). Guarded by the staging epoch: when
        // nothing new arrived for the current tick since the last
        // merge, the sort + inplace_merge is skipped entirely.
        Level& l0 = levels_[0];
        const std::uint64_t idx0 = cur_tick_ & kBucketMask;
        if (stage_epoch_ != staged_epoch_ &&
            (l0.occupied[idx0 >> 6] & (std::uint64_t{1} << (idx0 & 63)))) {
            std::vector<Entry>& b =
                l0.buckets[static_cast<std::size_t>(idx0)];
            std::sort(b.begin(), b.end(), EntryEarlier{});
            ready_.erase(ready_.begin(),
                         ready_.begin() +
                             static_cast<std::ptrdiff_t>(ready_pos_));
            ready_pos_ = 0;
            const std::ptrdiff_t mid =
                static_cast<std::ptrdiff_t>(ready_.size());
            ready_.insert(ready_.end(), b.begin(), b.end());
            std::inplace_merge(ready_.begin(), ready_.begin() + mid,
                               ready_.end(), EntryEarlier{});
            b.clear();
            l0.occupied[idx0 >> 6] &= ~(std::uint64_t{1} << (idx0 & 63));
        }
        staged_epoch_ = stage_epoch_;  // Cursor bucket staged (or empty).
        while (ready_pos_ < ready_.size()) {
            const Entry& e = ready_[ready_pos_];
            if (slot_live(e.id))
                return &e;
            ++ready_pos_;  // Cancelled: drop the stale tombstone.
            --wheel_count_;
            --wheel_dead_;
        }
        ready_.clear();
        ready_pos_ = 0;
        if (wheel_count_ == 0 || !wheel_advance())
            return nullptr;
    }
}

void
Simulator::wheel_compact()
{
    auto stale = [this](const Entry& e) { return !slot_live(e.id); };
    ready_.erase(ready_.begin(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_));
    ready_pos_ = 0;
    std::erase_if(ready_, stale);
    std::size_t count = ready_.size();
    for (Level& level : levels_) {
        for (std::size_t i = 0; i < static_cast<std::size_t>(kBuckets);
             ++i) {
            std::vector<Entry>& b = level.buckets[i];
            if (b.empty())
                continue;
            std::erase_if(b, stale);
            count += b.size();
            if (b.empty())
                level.occupied[i >> 6] &=
                    ~(std::uint64_t{1} << (i & 63));
        }
    }
    wheel_count_ = count;
    wheel_dead_ = 0;
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

bool
Simulator::cancel(EventId id)
{
    const std::uint32_t index = slot_of(id);
    if (index >= slots_.size() || !slot_live(id))
        return false;
    const bool in_heap = slots_[index].in_heap;
    release_slot(index);
    if (in_heap) {
        ++heap_dead_;
        if (heap_dead_ * 2 > heap_.size())
            heap_compact();
    } else {
        ++wheel_dead_;
        if (wheel_dead_ * 2 > wheel_count_)
            wheel_compact();
    }
    return true;
}

std::uint64_t
Simulator::run_until(Time until)
{
    stopped_ = false;
    std::uint64_t n = 0;
    while (!stopped_ && execute_next(until))
        ++n;
    return n;
}

}  // namespace hivemind::sim
