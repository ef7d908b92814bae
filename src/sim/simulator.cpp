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
Simulator::bucket_push(Bucket& b, const Entry& e)
{
    if (b.size++ == 0) {
        b.first = e;
        return;
    }
    // Entry k >= 1 goes to slot (k - 1) mod kChunkEntries of the tail;
    // slot 0 opens a new chunk.
    const std::uint32_t at = (b.size - 2) & (kChunkEntries - 1);
    if (at == 0) {
        std::uint32_t c = free_chunk_;
        if (c != kNoChunk) {
            free_chunk_ = chunks_[c].next;
        } else {
            c = static_cast<std::uint32_t>(chunks_.size());
            chunks_.emplace_back();
        }
        chunks_[c].next = kNoChunk;
        (b.tail == kNoChunk ? b.head : chunks_[b.tail].next) = c;
        b.tail = c;
    }
    chunks_[b.tail].entries[at] = e;
}

void
Simulator::bucket_free(Bucket& b)
{
    if (b.head != kNoChunk) {
        chunks_[b.tail].next = free_chunk_;
        free_chunk_ = b.head;
    }
    b = Bucket{};
}

std::size_t
Simulator::bucket_compact(Bucket& b)
{
    // Rewrite the live entries in order: the first one inline, the
    // rest forward through the chain (the write position never passes
    // the read one). Then free the chunks past the last one written.
    std::uint32_t live = 0;
    std::uint32_t w = b.head;
    std::uint32_t wi = 0;
    auto keep = [&](const Entry& e) {
        if (live++ == 0) {
            b.first = e;
            return;
        }
        if (wi == kChunkEntries) {
            w = chunks_[w].next;
            wi = 0;
        }
        chunks_[w].entries[wi++] = e;
    };
    if (slot_live(b.first.id))
        keep(b.first);
    for (std::uint32_t r = b.head; r != kNoChunk; r = chunks_[r].next) {
        const std::uint32_t used = chunk_used(b, r);
        for (std::uint32_t i = 0; i < used; ++i) {
            if (slot_live(chunks_[r].entries[i].id))
                keep(chunks_[r].entries[i]);
        }
    }
    if (live <= 1) {
        const Entry first = b.first;
        bucket_free(b);
        if (live == 1) {
            b.first = first;
            b.size = 1;
        }
        return live;
    }
    if (chunks_[w].next != kNoChunk) {
        chunks_[b.tail].next = free_chunk_;
        free_chunk_ = chunks_[w].next;
        chunks_[w].next = kNoChunk;
    }
    b.tail = w;
    b.size = live;
    return live;
}

void
Simulator::wheel_insert_slow(Entry e, std::uint64_t tick)
{
    ++wheel_count_;
    if (tick <= cur_tick_) {
        // Out-of-order arrival for a tick the cursor already reached
        // (a child scheduled a few microseconds out inside the
        // cursor's 131 us tick, or the cursor ran ahead of now_
        // hunting for the wheel head while a heap event executed): it
        // sorts before the ready run's tail, so it joins the same-tick
        // lane, and peek takes the smaller of the two heads.
        late_.push_back(e);
        std::push_heap(late_.begin(), late_.end(), EntryLater{});
        return;
    }
    const bool same_lap =
        (tick >> kBucketBits) == (cur_tick_ >> kBucketBits);
    Level& level = levels_[same_lap ? 0 : 1];
    const std::uint64_t index =
        same_lap ? tick & kBucketMask : (tick >> kBucketBits) & kBucketMask;
    bucket_push(level.buckets[static_cast<std::size_t>(index)], e);
    level.occupied[index >> 6] |= std::uint64_t{1} << (index & 63);
}

bool
Simulator::wheel_advance()
{
    // Precondition: the ready run and the same-tick lane are both
    // exhausted, and no bucket holds the cursor's tick or an earlier
    // one. Move the cursor to the next occupied level-0 bucket and
    // stage it as the ready run, cascading a level-1 bucket into level
    // 0 whenever a lap boundary is crossed. The cursor never passes an
    // occupied bucket, so bucket order equals time order.
    while (true) {
        if (ready_pos_ < ready_.size() || !late_.empty()) {
            // The bucket staged below held a live entry, or a cascade
            // re-inserted lap-start entries, which took wheel_insert's
            // tick <= cur_tick_ routes straight into the ready run or
            // the same-tick lane (no bucket, no occupancy bit): they
            // ARE the staged head.
            return true;
        }
        Level& l0 = levels_[0];
        const int idx0 = static_cast<int>(cur_tick_ & kBucketMask);
        const int j = next_bit(l0.occupied, idx0 + 1);
        if (j >= 0) {
            // Land on bucket j and stage it into the (empty) ready
            // run: copy it out of its chunks, drop its cancelled
            // entries (only while the wheel holds any) and sort the
            // rest, so cancelled entries are never sorted or skipped
            // one by one. Most buckets of a sparse run hold one event,
            // which needs no sort. A bucket that held only cancelled
            // entries stages nothing, and the cursor moves on.
            cur_tick_ += static_cast<std::uint64_t>(j - idx0);
            Bucket& b = l0.buckets[static_cast<std::size_t>(j)];
            ready_.clear();
            ready_.reserve(b.size);
            ready_.push_back(b.first);
            for (std::uint32_t c = b.head; c != kNoChunk;
                 c = chunks_[c].next) {
                const Chunk& chunk = chunks_[c];
                ready_.insert(ready_.end(), chunk.entries.begin(),
                              chunk.entries.begin() + chunk_used(b, c));
            }
            if (wheel_dead_ != 0) {
                const std::size_t dropped =
                    std::erase_if(ready_, [this](const Entry& e) {
                        return !slot_live(e.id);
                    });
                wheel_count_ -= dropped;
                wheel_dead_ -= dropped;
            }
            if (ready_.size() > 1)
                std::sort(ready_.begin(), ready_.end(), EntryEarlier{});
            bucket_free(b);
            ready_pos_ = 0;
            l0.occupied[static_cast<std::size_t>(j) >> 6] &=
                ~(std::uint64_t{1} << (j & 63));
            continue;
        }
        // Level-0 lap exhausted: cascade the next occupied level-1
        // bucket. Its span is exactly one level-0 lap, so every entry
        // re-inserts at level 0 (or into the ready run or the
        // same-tick lane for the lap's first tick).
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
        // Every live entry lands inside the new lap (level 0, the
        // ready run or the same-tick lane), never back in level 1;
        // cancelled ones leave the wheel. Each chunk is copied out and
        // freed before its entries re-insert, so the level-0 buckets
        // they fill reuse it at once.
        Bucket b = l1.buckets[static_cast<std::size_t>(k)];
        l1.buckets[static_cast<std::size_t>(k)] = Bucket{};
        l1.occupied[static_cast<std::size_t>(k) >> 6] &=
            ~(std::uint64_t{1} << (k & 63));
        auto cascade = [this](const Entry& e) {
            --wheel_count_;
            if (wheel_dead_ == 0 || slot_live(e.id))
                wheel_insert(e);
            else
                --wheel_dead_;
        };
        cascade(b.first);
        std::array<Entry, kChunkEntries> batch;
        for (std::uint32_t c = b.head; c != kNoChunk;) {
            const std::uint32_t used = chunk_used(b, c);
            const std::uint32_t next = chunks_[c].next;
            std::copy_n(chunks_[c].entries.begin(), used, batch.begin());
            chunks_[c].next = free_chunk_;
            free_chunk_ = c;
            c = next;
            for (std::uint32_t i = 0; i < used; ++i)
                cascade(batch[i]);
        }
        if (wheel_count_ == 0)
            return false;  // The lap held only cancelled entries.
    }
}

const Simulator::Entry*
Simulator::wheel_peek_slow()
{
    while (true) {
        // Drop cancelled tombstones from both heads.
        while (ready_pos_ < ready_.size() &&
               !slot_live(ready_[ready_pos_].id)) {
            ++ready_pos_;
            --wheel_count_;
            --wheel_dead_;
        }
        while (!late_.empty() && !slot_live(late_.front().id)) {
            std::pop_heap(late_.begin(), late_.end(), EntryLater{});
            late_.pop_back();
            --wheel_count_;
            --wheel_dead_;
        }
        const bool have_ready = ready_pos_ < ready_.size();
        if (!late_.empty()) {
            const Entry& l = late_.front();
            return have_ready && entry_earlier(ready_[ready_pos_], l)
                ? &ready_[ready_pos_]
                : &l;
        }
        if (have_ready)
            return &ready_[ready_pos_];
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
    std::erase_if(late_, stale);
    std::make_heap(late_.begin(), late_.end(), EntryLater{});
    std::size_t count = ready_.size() + late_.size();
    for (Level& level : levels_) {
        for (std::size_t i = 0; i < static_cast<std::size_t>(kBuckets);
             ++i) {
            Bucket& b = level.buckets[i];
            if (b.size == 0)
                continue;
            const std::size_t live = bucket_compact(b);
            count += live;
            if (live == 0)
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
