#pragma once

/**
 * @file
 * Inter-function data-sharing protocols (Fig. 6c, Sec. 4.4).
 *
 * Dependent serverless functions exchange intermediate data through
 * one of four mechanisms:
 *  - CouchDb:    OpenWhisk's default — controller handle lookup plus
 *                a store write by the parent and a read by the child.
 *  - DirectRpc:  point-to-point RPC over the cluster network (what
 *                HiveMind's synthesized Thrift APIs use at the edge
 *                boundary).
 *  - InMemory:   child placed in the parent's container; the hand-off
 *                is a memcpy within one address space.
 *  - RemoteMemory: HiveMind's FPGA fabric (Sec. 4.4) — an RoCE-style
 *                one-sided access over UPI with no host CPU and no OS
 *                buffer copies.
 */

#include <cstdint>

#include "cloud/datastore.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hivemind::cloud {

/** How a child function obtains its parent's output. */
enum class SharingProtocol
{
    CouchDb,
    DirectRpc,
    InMemory,
    RemoteMemory,
};

/** Human-readable protocol name for table output. */
const char* to_string(SharingProtocol p);

/**
 * Executes data hand-offs between dependent functions under a chosen
 * protocol.
 */
class DataSharingFabric
{
  public:
    DataSharingFabric(sim::Simulator& simulator, sim::Rng& rng,
                      DataStore& store);

    /**
     * Move @p bytes of parent output to the child.
     *
     * @param protocol the mechanism to use
     * @param bytes payload size
     * @param done completion callback (an FaaS continuation's
     *        16-byte capture stays inline all the way to its event)
     */
    void share(SharingProtocol protocol, std::uint64_t bytes,
               sim::InlineFn done);

  private:
    sim::Simulator* simulator_;
    sim::Rng rng_;
    DataStore* store_;
};

}  // namespace hivemind::cloud
