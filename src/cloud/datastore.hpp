#pragma once

/**
 * @file
 * CouchDB-style backing store used for serverless data exchange.
 *
 * OpenWhisk routes all inter-function data through CouchDB: "for two
 * functions to exchange data they have to go through the OpenWhisk
 * controller to get a handle to a database object" (Sec. 3.3). The
 * model is a c-server FIFO queue (the DB's request handlers) with a
 * fixed per-request base latency plus a size-dependent transfer term;
 * concurrency contention emerges from the queue, matching the
 * "especially when many functions try to access data concurrently"
 * observation (Sec. 4.4).
 */

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hivemind::cloud {

/** Store settings tests vary; the rest are constants (datastore.cpp). */
struct DataStoreConfig
{
    /** Concurrent request handlers. */
    int handlers = 16;
    /** Lognormal sigma on the base latency (compaction, contention). */
    double jitter_sigma = 0.45;
};

/** FIFO c-server queue model of the CouchDB instance. */
class DataStore
{
  public:
    DataStore(sim::Simulator& simulator, sim::Rng& rng,
              const DataStoreConfig& config);

    /**
     * Issue a read or write of @p bytes; @p done fires at completion.
     * Reads and writes share the handler pool.
     */
    void access(std::uint64_t bytes, sim::InlineFn done);

    /** Requests completed so far. */
    std::uint64_t requests() const { return requests_; }

    /**
     * Outage window (chaos injection): every handler stalls until
     * @p until; accesses queue behind the outage and complete once the
     * store is back. Overlapping outages extend the window.
     */
    void fail_until(sim::Time until);

    /** Whether an outage window is currently open. */
    bool in_outage() const { return simulator_->now() < outage_until_; }

  private:
    sim::Simulator* simulator_;
    sim::Rng rng_;
    DataStoreConfig config_;
    std::vector<sim::Time> handler_free_;
    sim::Time outage_until_ = 0;
    std::uint64_t requests_ = 0;
};

}  // namespace hivemind::cloud
