#pragma once

/**
 * @file
 * Cloud server and cluster models: cores, memory, occupancy.
 *
 * The paper's backend is 12 two-socket, 40-core Intel servers with
 * 128-256 GB of RAM (Sec. 2.1). A running container occupies one
 * logical core — "two containers can share a physical server, but
 * never share a logical core" (Sec. 4.3) — while any live container
 * (including idle kept-alive ones) reserves its memory footprint.
 * Worker monitors (Sec. 4.3) read the occupancy numbers exposed here.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace hivemind::cloud {

class Cluster;

/**
 * One backend server: a pool of pinned core slots and memory. A
 * server built by a Cluster reports every change to its placement
 * state (busy cores, down, probation) back to it, so the cluster's
 * least-loaded index stays exact.
 */
class Server
{
  public:
    /**
     * @param id index within the cluster
     * @param cores logical cores available for containers
     * @param memory_mb RAM available for containers
     */
    Server(std::size_t id, int cores, std::uint64_t memory_mb)
        : id_(id), cores_(cores), memory_mb_(memory_mb)
    {
    }

    std::size_t id() const { return id_; }
    int cores() const { return cores_; }
    int busy_cores() const { return busy_cores_; }
    int free_cores() const { return cores_ - busy_cores_; }

    std::uint64_t memory_mb() const { return memory_mb_; }
    std::uint64_t used_memory_mb() const { return used_memory_mb_; }

    /** Fraction of cores currently occupied, in [0, 1]. */
    double
    occupancy() const
    {
        return cores_ > 0
            ? static_cast<double>(busy_cores_) / static_cast<double>(cores_)
            : 1.0;
    }

    /** Whether a new container needing @p memory_mb can start now. */
    bool
    can_host(std::uint64_t memory_mb) const
    {
        return !down_ && !on_probation_ && free_cores() > 0 &&
            has_memory(memory_mb);
    }

    /** Whether @p memory_mb of RAM is available. */
    bool
    has_memory(std::uint64_t memory_mb) const
    {
        return used_memory_mb_ + memory_mb <= memory_mb_;
    }

    /** Claim one logical core (pinned to a container). */
    void
    acquire_core()
    {
        const int level = load_level();
        ++busy_cores_;
        changed(level, on_probation_);
    }
    /** Release a logical core. */
    void
    release_core()
    {
        const int level = load_level();
        --busy_cores_;
        changed(level, on_probation_);
    }

    /** Reserve container memory. */
    void acquire_memory(std::uint64_t mb) { used_memory_mb_ += mb; }
    /** Release container memory. */
    void release_memory(std::uint64_t mb) { used_memory_mb_ -= mb; }

    /**
     * Probation (Sec. 4.6): a server producing several stragglers is
     * excluded from placement for a few minutes.
     */
    bool on_probation() const { return on_probation_; }
    void
    set_probation(bool p)
    {
        const int level = load_level();
        const bool was = on_probation_;
        on_probation_ = p;
        changed(level, was);
    }

    /**
     * Crash state (chaos injection, Sec. 4.7): a down server hosts
     * nothing and is excluded from placement until it restarts.
     */
    bool down() const { return down_; }
    void
    set_down(bool d)
    {
        const int level = load_level();
        down_ = d;
        changed(level, on_probation_);
    }

    /**
     * Container-generation counter: bumped on every crash so in-flight
     * invocations can detect that the container they were running in no
     * longer exists (their core/memory claims died with it).
     */
    std::uint64_t epoch() const { return epoch_; }
    void bump_epoch() { ++epoch_; }

    /** Wipe all core/memory claims — everything on the host died. */
    void
    reset_occupancy()
    {
        const int level = load_level();
        busy_cores_ = 0;
        used_memory_mb_ = 0;
        changed(level, on_probation_);
    }

    /** A copy would report its changes to the original's cluster. */
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;
    Server(Server&&) = default;

  private:
    friend class Cluster;

    /**
     * Key of this server in its cluster's least-loaded index: the busy
     * core count while the server can take a container's core (up, off
     * probation, a core free), otherwise -1 (not indexed).
     */
    int
    load_level() const
    {
        return !down_ && !on_probation_ && busy_cores_ >= 0 &&
                busy_cores_ < cores_
            ? busy_cores_
            : -1;
    }

    /** Tell the owning cluster, if any, what the state was before. */
    void changed(int old_level, bool was_on_probation);

    Cluster* cluster_ = nullptr;
    std::size_t id_;
    int cores_;
    std::uint64_t memory_mb_;
    int busy_cores_ = 0;
    std::uint64_t used_memory_mb_ = 0;
    bool on_probation_ = false;
    bool down_ = false;
    std::uint64_t epoch_ = 0;
};

/**
 * The backend cluster: a fixed set of servers.
 *
 * least_loaded() answers from an index instead of scanning: one bitset
 * row per busy-core level (0 .. cores - 1) over the servers that can
 * take a container's core, plus a summary row per level with one bit
 * per non-empty 64-server word. Every server mutation moves at most
 * one bit, with no allocation. Invariant: the constructor gives every
 * server the same core count, so ordering servers by busy cores orders
 * them by occupancy(), and the walk returns exactly the server a
 * minimum-occupancy scan with lowest-index tie-break would.
 */
class Cluster
{
  public:
    /** Build @p n identical servers. */
    Cluster(std::size_t n, int cores_per_server, std::uint64_t memory_mb)
        : levels_(cores_per_server > 0
                      ? static_cast<std::size_t>(cores_per_server)
                      : 0),
          words_((n + 63) / 64),
          summary_words_((words_ + 63) / 64),
          bits_(levels_ * words_, 0),
          summary_(levels_ * summary_words_, 0)
    {
        servers_.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            servers_.emplace_back(i, cores_per_server, memory_mb);
            servers_.back().cluster_ = this;
            insert(servers_.back().load_level(), i);
        }
    }

    /** Servers point back at their cluster, so it never moves. */
    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    std::size_t size() const { return servers_.size(); }
    Server& server(std::size_t i) { return servers_[i]; }
    const Server& server(std::size_t i) const { return servers_[i]; }
    const std::vector<Server>& servers() const { return servers_; }

    /** Total free cores across the cluster. */
    int
    total_free_cores() const
    {
        int n = 0;
        for (const Server& s : servers_)
            n += s.free_cores();
        return n;
    }

    /** Servers currently on probation (down or not). */
    std::size_t probation_count() const { return probation_count_; }

    /**
     * Least-loaded server that can host a container of @p memory_mb.
     * Deterministic tie-break by index.
     */
    std::optional<std::size_t>
    least_loaded(std::uint64_t memory_mb) const
    {
        for (std::size_t level = 0; level < levels_; ++level) {
            const std::uint64_t* row = &bits_[level * words_];
            const std::uint64_t* summary = &summary_[level * summary_words_];
            for (std::size_t sw = 0; sw < summary_words_; ++sw) {
                for (std::uint64_t live = summary[sw]; live != 0;
                     live &= live - 1) {
                    const std::size_t w =
                        sw * 64 + static_cast<std::size_t>(
                                      std::countr_zero(live));
                    for (std::uint64_t word = row[w]; word != 0;
                         word &= word - 1) {
                        const std::size_t i =
                            w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(word));
                        if (servers_[i].has_memory(memory_mb))
                            return i;
                    }
                }
            }
        }
        return std::nullopt;
    }

  private:
    friend class Server;

    /** Re-key server @p s after a change from @p old_level. */
    void
    update(const Server& s, int old_level, bool was_on_probation)
    {
        const int level = s.load_level();
        if (level != old_level) {
            erase(old_level, s.id());
            insert(level, s.id());
        }
        if (s.on_probation() && !was_on_probation)
            ++probation_count_;
        else if (!s.on_probation() && was_on_probation)
            --probation_count_;
    }

    void
    insert(int level, std::size_t i)
    {
        if (level < 0)
            return;
        const std::size_t w = i / 64;
        const std::size_t l = static_cast<std::size_t>(level);
        bits_[l * words_ + w] |= std::uint64_t{1} << (i % 64);
        summary_[l * summary_words_ + w / 64] |= std::uint64_t{1} << (w % 64);
    }

    void
    erase(int level, std::size_t i)
    {
        if (level < 0)
            return;
        const std::size_t w = i / 64;
        const std::size_t l = static_cast<std::size_t>(level);
        std::uint64_t& word = bits_[l * words_ + w];
        word &= ~(std::uint64_t{1} << (i % 64));
        if (word == 0) {
            summary_[l * summary_words_ + w / 64] &=
                ~(std::uint64_t{1} << (w % 64));
        }
    }

    std::vector<Server> servers_;
    std::size_t levels_;         ///< Index rows: busy cores 0 .. cores - 1.
    std::size_t words_;          ///< 64-server words per row.
    std::size_t summary_words_;  ///< Summary words per row.
    std::vector<std::uint64_t> bits_;     ///< levels_ x words_.
    std::vector<std::uint64_t> summary_;  ///< levels_ x summary_words_.
    std::size_t probation_count_ = 0;
};

inline void
Server::changed(int old_level, bool was_on_probation)
{
    if (cluster_)
        cluster_->update(*this, old_level, was_on_probation);
}

}  // namespace hivemind::cloud
