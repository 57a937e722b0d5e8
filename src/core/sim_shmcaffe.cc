#include "core/sim_shmcaffe.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/pcie_model.h"
#include "core/config.h"
#include "fault/injector.h"
#include "net/fabric.h"
#include "recovery/schedule.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "smb/server.h"
#include "smb/sim_smb.h"

namespace shmcaffe::core {
namespace {

struct GroupStats {
  SimTime comp = 0;
  SimTime comm = 0;
  std::int64_t completed = 0;  ///< iterations actually run (<= target on crash)
  bool crashed = false;
  bool recovered = false;    ///< slot re-admitted after its crash
  bool drained = false;      ///< left voluntarily at its planned drain point
  bool evicted = false;      ///< removed by the straggler-quarantine policy
  bool joined_late = false;  ///< cold join above the initial cohort
};

/// Shared elastic-membership state of one simulated run: the registry both
/// the initial cohort and late joiners transition through, plus the
/// plan-driven join triggers ("the progress board reached iteration X").
struct ElasticSimState {
  elastic::MembershipService* service = nullptr;
  const elastic::MembershipPlan* plan = nullptr;
  elastic::MembershipPolicy policy;
  SimTime t_ulw = 0;               ///< joiner catch-up local-update time
  std::int64_t max_completed = 0;  ///< cohort max iteration (the join trigger)
  std::int64_t staleness_violations = 0;
  std::vector<elastic::MembershipEvent> pending_joins;  ///< plan order
  std::size_t next_join = 0;
  std::function<void(const elastic::MembershipEvent&)> spawn_join;
};

/// Fires every planned join whose trigger iteration the cohort has reached —
/// the sim analogue of the functional join monitors watching the board.
void maybe_spawn_joins(ElasticSimState& elastic) {
  while (elastic.next_join < elastic.pending_joins.size() &&
         elastic.pending_joins[elastic.next_join].at_iteration <= elastic.max_completed) {
    elastic.spawn_join(elastic.pending_joins[elastic.next_join]);
    ++elastic.next_join;
  }
}

/// Timing model of the recovery layer, derived from the fault plan before
/// the measurement run (everything here is deterministic in the plan).
struct SimRecoveryContext {
  /// Service-pause windows [start, end) in absolute sim time: one per SMB
  /// primary failover (detection + promotion latency).  Sorted by start.
  std::vector<std::pair<SimTime, SimTime>> pauses;
  /// Earliest instant some shard has no live replica left; an exchange at
  /// or after this time fail-stops the worker (mirrors SmbUnavailable).
  SimTime smb_dead_at = std::numeric_limits<SimTime>::max();
  /// Re-admission enabled (policy.respawn_crashed, async only).
  bool readmit = false;
  SimTime readmit_delay = 0;
};

/// The instant SMB service resumes if `now` falls inside a failover pause
/// (chained windows extend each other); `now` itself when unobstructed.
SimTime service_resume_time(const std::vector<std::pair<SimTime, SimTime>>& pauses,
                            SimTime now) {
  SimTime until = now;
  for (const auto& [begin, end] : pauses) {
    if (begin <= until && until < end) until = end;
  }
  return until;
}

/// One group's endpoint on one SMB server (the global buffer is sharded
/// across servers; shard i holds `bytes` of W_g and of this group's dW).
struct ShardEndpoint {
  smb::SimSmbClient* client = nullptr;
  smb::Handle global;
  smb::Handle delta;
  std::int64_t bytes = 0;
};

sim::Task<void> read_global(sim::Simulation& sim, std::vector<ShardEndpoint>& shards,
                            bool zero_copy) {
  std::vector<sim::Task<void>> reads;
  reads.reserve(shards.size());
  for (ShardEndpoint& shard : shards) {
    reads.push_back(zero_copy ? shard.client->read_pinned(shard.global, shard.bytes)
                              : shard.client->read(shard.global, shard.bytes));
  }
  co_await sim::when_all(sim, std::move(reads));
}

sim::Task<void> flush_increment(sim::Simulation& sim, std::vector<ShardEndpoint>& shards) {
  auto flush_one = [](ShardEndpoint& shard) -> sim::Task<void> {
    co_await shard.client->write(shard.delta, shard.bytes);        // T.A1: T_wwi
    co_await shard.client->accumulate(shard.delta, shard.global);  // T.A2-4: T_ugw
  };
  std::vector<sim::Task<void>> flushes;
  flushes.reserve(shards.size());
  for (ShardEndpoint& shard : shards) flushes.push_back(flush_one(shard));
  co_await sim::when_all(sim, std::move(flushes));
}

/// The Fig. 6 update thread of one group root.
sim::Task<void> update_thread(sim::Simulation& sim, std::vector<ShardEndpoint>& shards,
                              sim::Semaphore& wake, sim::SimMutex& exchange_mutex,
                              bool& stopping) {
  for (;;) {
    co_await wake.acquire();
    if (stopping) co_return;
    sim::SimLock lock = co_await exchange_mutex.scoped_lock();
    co_await flush_increment(sim, shards);
  }
}

sim::Task<void> group_worker(sim::Simulation& sim, const SimShmCaffeOptions& options,
                             std::vector<ShardEndpoint> shards, int group,
                             int total_groups, const SimRecoveryContext& recovery,
                             GroupStats& stats, ElasticSimState* elastic) {
  const cluster::ModelProfile& model = cluster::profile(options.model);
  const cluster::TestbedSpec& spec = options.testbed;
  const coll::PcieModel pcie{spec.pcie_bus_bandwidth, 20 * units::kMicrosecond};
  const int s = options.group_size;
  common::Rng rng = common::Rng(options.seed).fork(static_cast<std::uint64_t>(group) + 1);

  // T_ulw: elementwise local-weight update from the global copy.
  const SimTime t_ulw = units::transfer_time(model.param_bytes, spec.gpu_update_bandwidth);

  sim::Semaphore wake(sim, 0);
  sim::SimMutex exchange_mutex(sim);
  bool stopping = false;
  sim::JoinHandle updater =
      sim.spawn(update_thread(sim, shards, wake, exchange_mutex, stopping));

  // A single group has nobody to share with: the paper's "(S#, A0)" rows
  // are plain synchronous SGD with no SMB exchange, and one ShmCaffe worker
  // degenerates to standalone Caffe.
  const bool use_smb = total_groups > 1;

  // Faults are keyed to the group's root worker: a synchronous group marches
  // in lockstep, so its members crash or stall together, before any
  // intra-group collective.
  const int root_worker = group * s;

  // Static heterogeneity: a planted slow machine computes every minibatch
  // slower; ComputeJitter then adds its transient noise on top.
  const auto comp_base = static_cast<SimTime>(
      static_cast<double>(model.comp_time) * options.heterogeneity.compute_scale(root_worker));

  // Elastic runs have group_size == 1, so `group` is the worker id.
  const std::int64_t drain_at = elastic != nullptr && elastic->plan != nullptr
                                    ? elastic->plan->drain_iteration(group)
                                    : -1;
  int stall_violations = 0;

  std::vector<SimTime> member_comps(static_cast<std::size_t>(s));
  bool crash_consumed = false;
  for (std::int64_t it = 0; it < options.iterations; ++it) {
    if (options.faults != nullptr && !crash_consumed &&
        options.faults->crashes_at(root_worker, it)) {
      crash_consumed = true;  // a worker dies once; a replacement never re-crashes
      stats.crashed = true;
      if (!recovery.readmit) {
        break;  // fail-stop: no further exchanges; survivors keep training
      }
      // Re-admission: the replacement attaches after the modelled respawn
      // delay, adopts W_g (a full global read + local update), and resumes
      // the slot's remaining iterations under its new incarnation.
      co_await sim.delay(recovery.readmit_delay);
      if (use_smb) {
        // Catch-up adoption always copies (the adopted weights outlive the
        // read window), matching the functional trainer.
        co_await read_global(sim, shards, /*zero_copy=*/false);
        co_await sim.delay(t_ulw);
      }
      stats.recovered = true;
    }
    if (drain_at >= 0 && it >= drain_at) {
      // Voluntary drain: flush the pipeline, deregister (rebalancing the
      // shard map), and leave with the slot's progress intact.
      co_await sim.delay(units::from_seconds(elastic->policy.drain_flush_seconds));
      elastic->service->drain(group, drain_at);
      co_await sim.delay(units::from_seconds(elastic->policy.rebalance_seconds));
      stats.drained = true;
      break;
    }
    const bool sharing = use_smb && it % options.update_interval == 0;
    const SimTime iter_start = sim.now();
    bool evicted_now = false;
    if (options.faults != nullptr) {
      const double stall = options.faults->stall_seconds(root_worker, it);
      // The stall lands inside the iteration window, so the per-member
      // accounting below books it as non-overlapped (comm-side) time.
      if (stall > 0.0) {
        co_await sim.delay(units::from_seconds(stall));
        if (elastic != nullptr && !crash_consumed && elastic->policy.straggler_detection &&
            stall >= elastic->policy.quarantine_stall_seconds) {
          // The planned quarantine chain (membership_schedule): each
          // qualifying stall demotes the worker and readmits it once the
          // stall is over (it has caught back up by construction — the sim
          // worker reports at iteration granularity); the Nth one evicts.
          ++stall_violations;
          if (stall_violations >= elastic->policy.evict_after_violations) {
            elastic->service->evict(group, it);
            co_await sim.delay(units::from_seconds(elastic->policy.rebalance_seconds));
            evicted_now = true;
          } else {
            elastic->service->quarantine(group, it);
            elastic->service->readmit_contributor(group, it);
          }
        }
      }
    }
    if (evicted_now) {
      stats.evicted = true;
      break;
    }
    if (sharing) {
      // Some shard lost its last replica: the exchange can never complete
      // (the functional stack's SmbUnavailable) — an infrastructure-induced
      // fail-stop of this worker.
      if (sim.now() >= recovery.smb_dead_at) {
        stats.crashed = true;
        break;
      }
      // A failover in progress pauses SMB service for the detection +
      // promotion latency; the exchange waits it out.
      const SimTime resume_at = service_resume_time(recovery.pauses, sim.now());
      if (resume_at > sim.now()) co_await sim.delay(resume_at - sim.now());
      // Mutually exclusive with the update thread; a still-running previous
      // flush blocks us here (the paper's T.A5 wait).
      {
        sim::SimLock lock = co_await exchange_mutex.scoped_lock();
        co_await read_global(sim, shards, options.zero_copy_reads);  // T1: T_rgw
        co_await sim.delay(t_ulw);          // T2: T_ulw
        if (!options.overlap_update) {
          // Ablation: flush the increment inline instead of overlapping.
          co_await flush_increment(sim, shards);
        }
      }
      if (options.overlap_update) wake.release();  // T3
    }

    // T4 + T5: the group's computation; a synchronous group proceeds when
    // its slowest member finishes (members' idle waits count as comm).
    SimTime comp_max = 0;
    for (SimTime& c : member_comps) {
      c = options.jitter.sample(rng, comp_base);
      comp_max = std::max(comp_max, c);
    }
    co_await sim.delay(comp_max);

    if (s > 1) {
      // Hybrid: intra-node gradient allreduce before the local update and
      // the root's broadcast of refreshed weights after the exchange.
      const SimTime intra = pcie.ring_allreduce_time(s, model.param_bytes) +
                            (sharing ? pcie.broadcast_time(s, model.param_bytes) : 0);
      co_await sim.delay(intra);
    }

    // Per-member accounting, matching how the paper measures: computation
    // is the member's own minibatch time; communication is everything else
    // in the iteration (transfers, lock waits, straggler waits).
    const SimTime iter_time = sim.now() - iter_start;
    for (SimTime c : member_comps) {
      stats.comp += c;
      stats.comm += iter_time - c;
    }
    stats.completed += 1;

    if (elastic != nullptr) {
      // Heterogeneity health metric: fresh progress already further behind
      // the cohort maximum than the policy's staleness bound.
      if (elastic->max_completed - (it + 1) >
          static_cast<std::int64_t>(elastic->policy.staleness_bound_iterations)) {
        ++elastic->staleness_violations;
      }
      if (it + 1 > elastic->max_completed) elastic->max_completed = it + 1;
      maybe_spawn_joins(*elastic);
    }
  }

  stopping = true;
  wake.release();
  co_await updater;
}

/// A cold join: the functional stack's join-monitor + run_worker(kColdJoin)
/// path.  Provisioning latency, then delta-segment creation, registration
/// (which rebalances the shard map), W_g adoption, and a full worker life.
sim::Task<void> join_worker(sim::Simulation& sim, const SimShmCaffeOptions& options,
                            std::vector<smb::SimSmbClient*> clients,
                            std::vector<smb::Handle> global_handles,
                            std::vector<std::int64_t> shard_sizes,
                            elastic::MembershipEvent event, int total_groups,
                            const SimRecoveryContext& recovery, GroupStats& stats,
                            ElasticSimState& elastic) {
  co_await sim.delay(units::from_seconds(elastic.policy.join_delay_seconds));
  std::vector<ShardEndpoint> shards(clients.size());
  for (std::size_t n = 0; n < clients.size(); ++n) {
    ShardEndpoint& ep = shards[n];
    ep.client = clients[n];
    ep.global = global_handles[n];
    ep.bytes = shard_sizes[n];
    ep.delta = co_await clients[n]->create(
        1000 + static_cast<smb::ShmKey>(event.worker), ep.bytes);
  }
  elastic.service->join(event.worker, event.at_iteration);
  co_await sim.delay(units::from_seconds(elastic.policy.rebalance_seconds));
  // Catch-up: adopt W_g before contributing (global read + local update);
  // always a copy read, like the functional trainer's catch-up path.
  co_await read_global(sim, shards, /*zero_copy=*/false);
  co_await sim.delay(elastic.t_ulw);
  stats.joined_late = true;
  co_await group_worker(sim, options, std::move(shards), event.worker, total_groups,
                        recovery, stats, &elastic);
}

}  // namespace

cluster::PlatformTiming simulate_shmcaffe(const SimShmCaffeOptions& options) {
  if (options.workers < 1 || options.group_size < 1 ||
      options.workers % options.group_size != 0) {
    throw std::invalid_argument("workers must be a multiple of group_size");
  }
  if (options.smb_servers < 1) throw std::invalid_argument("smb_servers must be >= 1");
  if (options.smb_replicas < 1) throw std::invalid_argument("smb_replicas must be >= 1");
  if (options.recovery.respawn_crashed && options.group_size != 1) {
    // Mirrors the functional trainer: a replacement cannot rejoin a hybrid
    // group mid-collective.
    throw std::invalid_argument("respawn_crashed requires group_size == 1");
  }
  const int groups = options.workers / options.group_size;
  const bool elastic_run =
      options.membership != nullptr || options.membership_policy.straggler_detection;
  if (elastic_run && options.group_size != 1) {
    // Mirrors the functional trainer: membership changes cannot resize a
    // hybrid group mid-collective.
    throw std::invalid_argument("elastic membership requires group_size == 1");
  }
  if (options.membership != nullptr) {
    for (const elastic::MembershipEvent& ev : options.membership->joins()) {
      if (ev.worker < groups) {
        throw std::invalid_argument("join slots must be >= the initial worker count");
      }
    }
  }
  // Cold joins occupy slots [groups, capacity); without a plan the cohort
  // is exactly the initial one.
  const int capacity =
      options.membership != nullptr ? options.membership->capacity(groups) : groups;
  const int nservers = options.smb_servers;
  const cluster::ModelProfile& model = cluster::profile(options.model);
  const cluster::TestbedSpec& spec = options.testbed;

  sim::Simulation sim;
  net::FabricOptions fabric_options;
  fabric_options.efficiency = spec.fabric_efficiency;
  net::Fabric fabric(sim, fabric_options);

  smb::SimSmbOptions smb_options;
  smb_options.server_bandwidth = spec.hca_bandwidth;
  smb_options.accumulate_bandwidth = spec.smb_accumulate_bandwidth;
  std::vector<std::unique_ptr<smb::SimSmbServer>> servers;
  for (int n = 0; n < nservers; ++n) {
    servers.push_back(std::make_unique<smb::SimSmbServer>(sim, fabric, smb_options));
    servers.back()->start();
  }

  // Shard the parameter buffer evenly across the servers.
  auto shard_bytes = [&](int server) {
    const std::int64_t base = model.param_bytes / nservers;
    return base + (server < model.param_bytes % nservers ? 1 : 0);
  };

  // One client per (slot, server); each worker exchanges all its shards in
  // parallel.  The parallel shard streams still share the node's single
  // HCA, so each stream is capped at hca_bandwidth / nservers; a planted
  // slow machine's NIC divides that further (heterogeneity).
  const double stream_bandwidth =
      std::min(spec.smb_client_stream_bandwidth, spec.hca_bandwidth / nservers);
  std::vector<std::vector<std::unique_ptr<smb::SimSmbClient>>> clients(
      static_cast<std::size_t>(capacity));
  for (int g = 0; g < capacity; ++g) {
    const double slot_bandwidth = stream_bandwidth / options.heterogeneity.nic_scale(g);
    for (int n = 0; n < nservers; ++n) {
      clients[static_cast<std::size_t>(g)].push_back(std::make_unique<smb::SimSmbClient>(
          *servers[static_cast<std::size_t>(n)],
          "group" + std::to_string(g) + ".srv" + std::to_string(n), slot_bandwidth));
    }
  }

  // Master (group 0) creates the global shards; every initial group then
  // creates its private delta shards.  Global handles are kept so late
  // joiners can adopt W_g when they arrive.
  std::vector<std::vector<ShardEndpoint>> endpoints(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    endpoints[static_cast<std::size_t>(g)].resize(static_cast<std::size_t>(nservers));
  }
  std::vector<smb::Handle> global_handles(static_cast<std::size_t>(nservers));
  std::vector<std::int64_t> shard_sizes(static_cast<std::size_t>(nservers));
  for (int n = 0; n < nservers; ++n) {
    shard_sizes[static_cast<std::size_t>(n)] = shard_bytes(n);
  }
  sim.spawn([](std::vector<std::vector<std::unique_ptr<smb::SimSmbClient>>>& cl,
               std::vector<std::vector<ShardEndpoint>>& eps,
               std::vector<smb::Handle>& globals, int ngroups, int nsrv,
               auto bytes_of) -> sim::Task<> {
    for (int n = 0; n < nsrv; ++n) {
      const std::int64_t bytes = bytes_of(n);
      smb::Handle global;
      for (int g = 0; g < ngroups; ++g) {
        auto& client = *cl[static_cast<std::size_t>(g)][static_cast<std::size_t>(n)];
        if (g == 0) global = co_await client.create(1, bytes);
        ShardEndpoint& ep = eps[static_cast<std::size_t>(g)][static_cast<std::size_t>(n)];
        ep.client = &client;
        ep.global = global;
        ep.delta = co_await client.create(1000 + static_cast<smb::ShmKey>(g), bytes);
        ep.bytes = bytes;
      }
      globals[static_cast<std::size_t>(n)] = global;
    }
  }(clients, endpoints, global_handles, groups, nservers, shard_bytes));
  sim.run();

  const SimTime start = sim.now();
  if (options.faults != nullptr) {
    // Link flaps: the plan's link indices map directly onto the fabric's
    // links (events beyond the fabric's link count are ignored); window
    // starts are relative to the measurement start.
    for (const fault::FaultEvent& ev : options.faults->all_link_windows()) {
      if (ev.target < 0 || static_cast<std::size_t>(ev.target) >= fabric.link_count()) {
        continue;
      }
      const double multiplier = ev.kind == fault::FaultKind::kLinkDown ? 0.0 : ev.severity;
      fabric.schedule_capacity_window(net::LinkId{static_cast<std::size_t>(ev.target)},
                                      start + units::from_seconds(ev.start_seconds),
                                      std::max<SimTime>(1, units::from_seconds(ev.duration_seconds)),
                                      multiplier);
    }
    fabric.set_dropped_transfers(options.faults->dropped_sequences());
  }

  // Replay the plan's SMB fail-stops against the replica topology (replica
  // r of shard s = physical server s * smb_replicas + r, the functional
  // trainer's layout).  An active replica's death is a failover: it pauses
  // service for the detection + promotion latency and is logged; a backup's
  // death is invisible; the last replica's death kills the shard.
  SimRecoveryContext recovery_ctx;
  recovery_ctx.readmit = options.recovery.respawn_crashed && options.group_size == 1;
  recovery_ctx.readmit_delay = units::from_seconds(options.recovery.readmit_delay_seconds);
  std::vector<std::vector<int>> failed_active(static_cast<std::size_t>(nservers));
  if (options.faults != nullptr) {
    const int replicas = options.smb_replicas;
    std::vector<fault::FaultEvent> stops;
    for (int n = 0; n < nservers * replicas; ++n) {
      for (const fault::FaultEvent& ev : options.faults->server_fail_stops(n)) {
        stops.push_back(ev);
      }
    }
    std::sort(stops.begin(), stops.end(),
              [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                return a.start_seconds != b.start_seconds ? a.start_seconds < b.start_seconds
                                                          : a.target < b.target;
              });
    std::vector<std::vector<char>> live(static_cast<std::size_t>(nservers),
                                        std::vector<char>(static_cast<std::size_t>(replicas), 1));
    std::vector<int> active(static_cast<std::size_t>(nservers), 0);
    for (const fault::FaultEvent& ev : stops) {
      const int shard = ev.target / replicas;
      const int replica = ev.target % replicas;
      if (shard < 0 || shard >= nservers) continue;
      auto& shard_live = live[static_cast<std::size_t>(shard)];
      if (!shard_live[static_cast<std::size_t>(replica)]) continue;
      shard_live[static_cast<std::size_t>(replica)] = 0;
      if (replica != active[static_cast<std::size_t>(shard)]) continue;  // backup died
      int next = -1;
      for (int r = 0; r < replicas; ++r) {
        if (shard_live[static_cast<std::size_t>(r)]) {
          next = r;
          break;
        }
      }
      const SimTime at = start + units::from_seconds(ev.start_seconds);
      if (next < 0) {
        recovery_ctx.smb_dead_at = std::min(recovery_ctx.smb_dead_at, at);
        continue;
      }
      active[static_cast<std::size_t>(shard)] = next;
      failed_active[static_cast<std::size_t>(shard)].push_back(replica);
      recovery_ctx.pauses.emplace_back(
          at, at + units::from_seconds(options.recovery.failover_seconds));
    }
  }

  std::vector<GroupStats> stats(static_cast<std::size_t>(capacity));
  std::optional<elastic::MembershipService> membership_service;
  ElasticSimState elastic_state;
  ElasticSimState* elastic = nullptr;
  if (elastic_run) {
    membership_service.emplace(groups, capacity, nservers);
    elastic_state.service = &*membership_service;
    elastic_state.plan = options.membership;
    elastic_state.policy = options.membership_policy;
    elastic_state.t_ulw = units::transfer_time(model.param_bytes, spec.gpu_update_bandwidth);
    if (options.membership != nullptr) {
      elastic_state.pending_joins = options.membership->joins();
    }
    elastic_state.spawn_join = [&sim, &options, &clients, &global_handles, &shard_sizes,
                                &recovery_ctx, &stats, &elastic_state, groups,
                                capacity](const elastic::MembershipEvent& event) {
      if (event.worker < groups || event.worker >= capacity) return;
      std::vector<smb::SimSmbClient*> cl;
      cl.reserve(clients[static_cast<std::size_t>(event.worker)].size());
      for (auto& c : clients[static_cast<std::size_t>(event.worker)]) cl.push_back(c.get());
      sim.spawn(join_worker(sim, options, std::move(cl), global_handles, shard_sizes,
                            event, capacity, recovery_ctx,
                            stats[static_cast<std::size_t>(event.worker)], elastic_state));
    };
    elastic = &elastic_state;
  }
  for (int g = 0; g < groups; ++g) {
    sim.spawn(group_worker(sim, options, endpoints[static_cast<std::size_t>(g)], g, capacity,
                           recovery_ctx, stats[static_cast<std::size_t>(g)], elastic));
  }
  // Joins planned at iteration 0 have their trigger met before anyone runs.
  if (elastic != nullptr) maybe_spawn_joins(*elastic);
  sim.run();

  cluster::PlatformTiming result;
  result.iterations = options.iterations;
  result.makespan = sim.now() - start;
  SimTime comp_sum = 0;
  SimTime comm_sum = 0;
  std::int64_t completed_member_iters = 0;
  for (const GroupStats& s : stats) {
    comp_sum += s.comp;
    comm_sum += s.comm;
    completed_member_iters +=
        s.completed * static_cast<std::int64_t>(options.group_size);
    if (s.crashed) result.crashed_workers += options.group_size;
  }
  result.completed_worker_iterations = completed_member_iters;
  const std::int64_t denom = std::max<std::int64_t>(1, completed_member_iters);
  result.mean_comp = comp_sum / denom;
  result.mean_comm = comm_sum / denom;

  for (int g = 0; g < groups; ++g) {
    if (stats[static_cast<std::size_t>(g)].recovered) {
      result.recovered_workers.push_back(g * options.group_size);
    }
  }
  for (const auto& log : failed_active) {
    result.smb_failovers += static_cast<std::int64_t>(log.size());
  }

  // The executed recovery actions, in planned order — the same filter the
  // functional trainer applies, so equal lists mean both stacks took the
  // identical recovery schedule from this plan.
  if (options.faults != nullptr) {
    result.recovery_events =
        recovery::executed_recovery(options.faults->plan(), options.recovery, failed_active,
                                    options.smb_replicas, result.recovered_workers);
  }

  // Integrity model: derive the executed ledger from the plan, the policy,
  // and the run's own timing, then filter the planned schedule by it exactly
  // the way the functional trainer does, so equal lists mean both stacks
  // agreed on which corruptions fired, were detected, and were repaired.
  if (options.faults != nullptr) {
    const int replicas = options.smb_replicas;
    const int physical = nservers * replicas;
    // Death time of each physical replica: an injection aimed at a dead
    // server raises SmbUnavailable on the functional stack and never lands.
    std::vector<SimTime> dead_at(static_cast<std::size_t>(physical),
                                 std::numeric_limits<SimTime>::max());
    for (int n = 0; n < physical; ++n) {
      for (const fault::FaultEvent& ev : options.faults->server_fail_stops(n)) {
        dead_at[static_cast<std::size_t>(n)] =
            std::min(dead_at[static_cast<std::size_t>(n)],
                     units::from_seconds(ev.start_seconds));
      }
    }
    // Conservative per-replica float-write count: the master's initial W_g
    // shard write plus one delta write per sharing exchange per group
    // (ReplicatedSmb fans every write to every replica of the shard).  The
    // torn-write ordinal estimate is deliberately coarse — cross-stack
    // integrity tests use corruption-only plans.
    std::int64_t writes_est = 1;
    if (capacity > 1) {
      for (const GroupStats& s : stats) {
        if (s.completed > 0) {
          writes_est += (s.completed + options.update_interval - 1) / options.update_interval;
        }
      }
    }
    const bool detectable = options.integrity.verify_on_read;
    const bool repairable = detectable && options.integrity.read_repair && replicas >= 2;
    // Detection happens at the next sharing block touching the poisoned
    // shard (every live exchange reads all of W_g), or at the final scrub
    // for corruptions landing after the last exchange.
    const SimTime sharing_interval =
        result.mean_iteration() * std::max(1, options.update_interval);
    using recovery::IntegrityAction;
    common::EventLedger<IntegrityAction> ledger;
    SimTime latency_sum = 0;
    // One detection (and, when repairable, one repair) of `marker`, caught
    // `latency` after it landed.
    const auto detect = [&](std::int64_t marker, SimTime latency) {
      if (!detectable) return;
      ledger.record_key(IntegrityAction::kCorruptionDetected, marker);
      latency_sum += latency;
      if (repairable) ledger.record_key(IntegrityAction::kCorruptionRepaired, marker);
    };
    for (int n = 0; n < physical; ++n) {
      for (const fault::FaultEvent& ev : options.faults->segment_corruptions(n)) {
        const SimTime at = units::from_seconds(ev.start_seconds);
        if (at > result.makespan) continue;                         // run already over
        if (at >= dead_at[static_cast<std::size_t>(n)]) continue;   // replica dead
        const auto marker = static_cast<std::int64_t>(ev.sequence);
        ledger.record_key(IntegrityAction::kCorruptionInjected, marker);
        detect(marker, std::min(sharing_interval, result.makespan - at));
      }
      for (const fault::FaultEvent& ev : options.faults->torn_writes(n)) {
        if (ev.sequence < 1 || static_cast<std::int64_t>(ev.sequence) > writes_est) continue;
        const auto marker =
            static_cast<std::int64_t>(smb::SmbServer::kTornWriteMarkerBit | ev.sequence);
        ledger.record_key(IntegrityAction::kTornWriteApplied, marker);
        detect(marker, sharing_interval);
      }
    }
    result.corruptions_detected =
        static_cast<std::int64_t>(ledger.count(IntegrityAction::kCorruptionDetected));
    result.integrity_repairs =
        static_cast<std::int64_t>(ledger.count(IntegrityAction::kCorruptionRepaired));
    if (result.corruptions_detected > 0) {
      result.detection_latency = latency_sum / result.corruptions_detected;
    }
    // Each rewritten copy stalls the detecting reader for the modelled
    // repair cost; the charge lands on the critical path (comm side).
    result.repair_time = static_cast<SimTime>(result.integrity_repairs) *
                         units::from_seconds(options.integrity.sim_repair_seconds);
    result.makespan += result.repair_time;
    const std::int64_t denom_iters = std::max<std::int64_t>(1, completed_member_iters);
    result.mean_comm += result.repair_time / denom_iters;
    result.integrity_events = common::executed_events(
        recovery::integrity_schedule(options.faults->plan(), options.integrity), ledger);
  }
  // The final scrub the functional trainer runs after training (one pass per
  // shard ensemble) — the walk exists only when there is a replica to vote
  // against.
  if (options.integrity.enabled() && options.integrity.scrub_on_checkpoint &&
      options.smb_replicas >= 2) {
    result.scrub_passes = nservers;
  }

  // The executed membership transitions, filtered the same way the
  // functional trainer does: the planned schedule kept by what this run
  // actually executed (a join whose trigger was never reached, or a
  // quarantine chain cut short by a crash, drops out on both stacks).
  if (membership_service.has_value()) {
    fill_membership_outcome(
        result, *membership_service,
        elastic::membership_schedule(
            options.membership, options.faults != nullptr ? &options.faults->plan() : nullptr,
            options.membership_policy, groups));
    result.staleness_violations = elastic_state.staleness_violations;
  }
  return result;
}

}  // namespace shmcaffe::core
