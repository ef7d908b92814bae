#pragma once

/**
 * @file
 * RPC processing models: kernel software stack vs FPGA offload.
 *
 * Sec. 4.5: HiveMind offloads the entire RPC stack onto an FPGA seen
 * as a NUMA node over UPI, achieving 2.1 us round trips and 12.4 Mrps
 * per core for 64 B RPCs, versus tens of microseconds and sub-Mrps
 * through the kernel TCP/IP stack. Each RpcProcessor models one end's
 * message processing as a single-server queue with a fixed per-message
 * service time plus a processing latency; the host CPU time each
 * message would consume is tracked so experiments can report the CPU
 * cycles acceleration frees for function execution.
 */

#include <cstdint>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hivemind::net {

/** Per-endpoint RPC processing parameters. */
struct RpcConfig
{
    /** Fixed processing latency added to each message (one end). */
    sim::Time latency = 0;
    /** Sustainable messages/second per processing core. */
    double throughput_rps = 1.0;
    /** Processing cores at this endpoint. */
    int cores = 1;
    /** Host-CPU seconds consumed per message (0 when offloaded). */
    double cpu_s_per_msg = 0.0;

    /**
     * Kernel TCP/IP + Thrift-style software stack: ~25 us per end and
     * ~0.6 Mrps per core, each message burning host CPU.
     */
    static RpcConfig software_stack(int cores);

    /**
     * HiveMind's FPGA offload (Sec. 4.5): 2.1 us RTT means ~1.05 us
     * per end; 12.4 Mrps per core; zero host CPU per message.
     */
    static RpcConfig fpga_offload(int cores);
};

/**
 * Models RPC message processing at one endpoint as an M/D/c-style
 * queue (deterministic service, c cores, FIFO).
 */
class RpcProcessor
{
  public:
    RpcProcessor(sim::Simulator& simulator, RpcConfig config);

    /**
     * Process one message; @p done fires when processing completes.
     *
     * @return the completion time.
     */
    sim::Time process(sim::InlineFn done);

    /** Host CPU seconds consumed so far by message processing. */
    double cpu_seconds_used() const { return cpu_seconds_; }

    /** Messages processed. */
    std::uint64_t messages() const { return messages_; }

  private:
    sim::Simulator* simulator_;
    RpcConfig config_;
    std::vector<sim::Time> core_free_;  // Per-core next-free times.
    double cpu_seconds_ = 0.0;
    std::uint64_t messages_ = 0;
};

}  // namespace hivemind::net
