#pragma once

/**
 * @file
 * Free-listed record slab with stable storage.
 *
 * Records that wait between events (FaaS invocations, fan-out joins,
 * scheduler races) live in a Slab and are addressed by a 32-bit index,
 * so a continuation captures only its owner and an index (16 bytes,
 * inline in the event kernel's callable). Records sit in fixed-size
 * chunks that never move: a reference stays valid while the slab
 * grows, and growth neither copies records nor briefly holds two
 * copies of the slab. A released index is reused last in first out,
 * so once a run reaches its peak, acquiring and releasing allocate
 * nothing.
 */

#include <cstdint>
#include <memory>
#include <vector>

namespace hivemind::sim {

template <typename T>
class Slab
{
  public:
    /**
     * Index of a free record. A new record is value-initialized; a
     * reused one keeps what its last holder left, for the caller to
     * overwrite.
     */
    std::uint32_t acquire()
    {
        if (!free_.empty()) {
            const std::uint32_t index = free_.back();
            free_.pop_back();
            return index;
        }
        if ((size_ & kChunkMask) == 0)
            chunks_.push_back(std::make_unique<T[]>(kChunkSize));
        return size_++;
    }

    /** Hand record @p index back for reuse. */
    void release(std::uint32_t index) { free_.push_back(index); }

    T& operator[](std::uint32_t index)
    {
        return chunks_[index >> kChunkBits][index & kChunkMask];
    }

    const T& operator[](std::uint32_t index) const
    {
        return chunks_[index >> kChunkBits][index & kChunkMask];
    }

    /** Records ever handed out, held or free: indices [0, size()). */
    std::uint32_t size() const { return size_; }

  private:
    static constexpr std::uint32_t kChunkBits = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t size_ = 0;
};

}  // namespace hivemind::sim
