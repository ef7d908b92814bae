#include "fault/shard_chaos.hpp"

#include <algorithm>

#include "sim/rng.hpp"

namespace hivemind::fault {

namespace {

/**
 * Fork a per-device burst Rng. Mixing the device id with a splitmix
 * constant and the event time keeps chains independent across devices
 * and across LinkBurst events while staying a pure function of
 * (seed, device, event) — the precondition for shard invariance.
 */
sim::Rng
burst_rng(std::uint64_t seed, std::size_t device, sim::Time at)
{
    const std::uint64_t mix =
        0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(device) + 1);
    return sim::Rng(seed ^ mix ^ static_cast<std::uint64_t>(at));
}

/**
 * Precompute one device's Gilbert-Elliott transition schedule for a
 * LinkBurst window and post it on the owner shard: open in the good
 * state, alternate exponential dwells (min one tick), restore the
 * configured loss when the window closes.
 */
void
schedule_ge_chain(sim::Simulator& shard, const FaultEvent& e,
                  std::size_t device, std::uint64_t seed,
                  const std::function<void(std::size_t, double)>& set_loss)
{
    shard.schedule_at(e.at, [fn = set_loss, device, loss = e.loss_good] {
        fn(device, loss);
    });
    const sim::Time window_end = e.at + e.duration;
    sim::Rng rng = burst_rng(seed, device, e.at);
    sim::Time t = e.at;
    bool to_bad = true;
    while (true) {
        const sim::Time dwell = std::max<sim::Time>(
            static_cast<sim::Time>(rng.exponential(
                static_cast<double>(to_bad ? e.mean_good : e.mean_bad))),
            1);
        t += dwell;
        if (t >= window_end)
            break;
        const double loss = to_bad ? e.loss_bad : e.loss_good;
        shard.schedule_at(t, [fn = set_loss, device, loss] {
            fn(device, loss);
        });
        to_bad = !to_bad;
    }
    shard.schedule_at(window_end, [fn = set_loss, device] {
        fn(device, -1.0);
    });
}

}  // namespace

ShardChaosReport
route_plan(sim::SwarmRuntime& runtime, const FaultPlan& plan,
           const std::function<int(std::size_t)>& owner,
           const ShardChaosHooks& hooks, int controller_shard)
{
    // Fail loudly on malformed plans before anything lands on a shard
    // kernel. Device targets are checked when the hooks declare the
    // fleet size; the horizon/server bounds live at the scenario layer.
    PlanBounds bounds;
    bounds.devices = hooks.devices;
    plan.validate_or_throw(bounds);
    // A crash on a device (server) an earlier crash still holds down
    // is not a second incident, and its rejoin (restore) is never
    // scheduled. The skip is fully determined by the plan, so replay
    // it statically and route only the effective crash/rejoin pairs;
    // a stray rejoin would otherwise revive a later incident early.
    const std::vector<bool> crash_fires = effective_crashes(plan);
    ShardChaosReport report;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const FaultEvent& e = plan.events[i];
        switch (e.kind) {
        case FaultKind::DeviceCrash: {
            const std::size_t device = e.target;
            sim::Simulator& shard = runtime.shard(owner(device));
            if (crash_fires[i] && hooks.crash_device)
                shard.schedule_at(e.at, [fn = hooks.crash_device, device] {
                    fn(device);
                });
            if (crash_fires[i] && e.duration > 0 && hooks.rejoin_device)
                shard.schedule_at(e.at + e.duration,
                                  [fn = hooks.rejoin_device, device] {
                                      fn(device);
                                  });
            ++report.routed;
            break;
        }
        case FaultKind::LinkBurst: {
            if (!hooks.set_device_loss || hooks.devices == 0 ||
                e.duration <= 0) {
                ++report.unsupported;
                break;
            }
            // Precompute every device's Gilbert-Elliott dwell chain
            // and post it on the device's owner shard. The chain is a
            // pure function of (burst_seed, device, event), so the
            // loss trajectory each uplink sees is identical at any
            // shard count.
            for (std::size_t d = 0; d < hooks.devices; ++d) {
                schedule_ge_chain(runtime.shard(owner(d)), e, d,
                                  hooks.burst_seed,
                                  hooks.set_device_loss);
            }
            if (hooks.note_link_burst)
                runtime.shard(controller_shard).schedule_at(
                    e.at, [fn = hooks.note_link_burst] { fn(); });
            ++report.link_bursts;
            ++report.routed;
            break;
        }
        case FaultKind::Partition: {
            if (!hooks.partition_device || e.duration <= 0) {
                ++report.unsupported;
                break;
            }
            const std::size_t device = e.target;
            sim::Simulator& shard = runtime.shard(owner(device));
            shard.schedule_at(e.at, [fn = hooks.partition_device, device] {
                fn(device, true);
            });
            shard.schedule_at(e.at + e.duration,
                              [fn = hooks.partition_device, device] {
                                  fn(device, false);
                              });
            ++report.routed;
            break;
        }
        case FaultKind::ServerCrash: {
            if (!hooks.crash_server) {
                ++report.unsupported;
                break;
            }
            const std::size_t server = e.target;
            sim::Simulator& shard = runtime.shard(0);
            if (crash_fires[i])
                shard.schedule_at(e.at, [fn = hooks.crash_server, server,
                                         down = e.duration] {
                    fn(server, down);
                });
            if (crash_fires[i] && e.duration > 0 && hooks.recover_server)
                shard.schedule_at(e.at + e.duration,
                                  [fn = hooks.recover_server, server] {
                                      fn(server);
                                  });
            ++report.routed;
            break;
        }
        case FaultKind::DatastoreOutage: {
            if (!hooks.datastore_outage || e.duration <= 0) {
                ++report.unsupported;
                break;
            }
            sim::Simulator& shard = runtime.shard(0);
            shard.schedule_at(e.at, [fn = hooks.datastore_outage,
                                     until = e.duration] { fn(until); });
            ++report.routed;
            break;
        }
        case FaultKind::ControllerPartition: {
            if (!hooks.partition_controller || e.duration <= 0) {
                ++report.unsupported;
                break;
            }
            runtime.shard(controller_shard).schedule_at(
                e.at, [fn = hooks.partition_controller, d = e.duration] {
                    fn(d);
                });
            ++report.routed;
            break;
        }
        case FaultKind::ControllerCrash: {
            if (!hooks.crash_controller) {
                ++report.unsupported;
                break;
            }
            runtime.shard(controller_shard).schedule_at(
                e.at, [fn = hooks.crash_controller] { fn(); });
            ++report.routed;
            break;
        }
        }
    }
    return report;
}

}  // namespace hivemind::fault
