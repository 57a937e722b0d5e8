// Shared configuration of the functional distributed-training experiments
// (ShmCaffe and the baseline platforms).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/platform_result.h"
#include "data/synth_dataset.h"
#include "dl/models.h"
#include "dl/solver.h"
#include "elastic/membership.h"
#include "recovery/checkpoint.h"
#include "recovery/integrity.h"
#include "recovery/schedule.h"

namespace shmcaffe::fault {
class FaultInjector;
}  // namespace shmcaffe::fault

namespace shmcaffe::core {

/// How workers align their termination (§III-E).
enum class TerminationCriterion {
  kMasterFinishes,      ///< everyone stops when the master reaches its target
  kFirstFinisher,       ///< everyone stops when any worker reaches its target
  kAverageIterations,   ///< stop when the mean iteration count reaches the target
};

struct DistTrainOptions {
  int workers = 4;
  /// Workers per node group for hybrid SGD; 1 means every worker is its own
  /// group (pure SEASGD).
  int group_size = 1;
  int batch_size = 32;
  int epochs = 6;  ///< data-parallel epochs over the whole training set

  std::string model_family = "mini_inception";
  dl::ModelInputSpec input;
  data::SynthDatasetOptions train_data;
  data::SynthDatasetOptions test_data;

  dl::SolverOptions solver;
  /// ShmCaffe hyper-parameters (§III-A): the paper's defaults.
  double moving_rate = 0.2;
  int update_interval = 1;
  /// Number of SMB servers sharding the global buffer (the paper's future
  /// work §V); 1 = the paper's evaluated configuration.
  int smb_servers = 1;
  /// Replicas per SMB shard.  1 = the paper's single passive server (no
  /// redundancy); >= 2 wraps each shard in a ReplicatedSmb ensemble that
  /// mirrors mutations and fails over when the primary fail-stops.
  int smb_replicas = 1;
  /// A preference, not a guarantee: when true, the T1 read of the elastic
  /// exchange (Fig. 6) pins epoch-stable zero-copy views of W_g instead of
  /// staging a private copy; the T2 arithmetic runs directly against SMB
  /// storage.  Numerically identical either way (eqs. (5)+(6) are
  /// elementwise); this only trades a memcpy for a pin/unpin pair.
  /// Checkpoint and recovery reads always copy (they outlive the read
  /// window), and so does the exchange whenever `integrity.verify_on_read`
  /// is on, which overrides this flag: a pin is verified only once, and
  /// silent corruption landing while it is held would reach T2 unchecked.
  bool zero_copy_reads = true;

  TerminationCriterion termination = TerminationCriterion::kAverageIterations;
  /// Bound on how many iterations a worker may run ahead of the slowest one
  /// (enforced through the shared progress board).  The paper's workers are
  /// identical GPUs that naturally stay within ~1 iteration of each other;
  /// on an oversubscribed CPU the OS scheduler would otherwise let one
  /// thread race dozens of iterations ahead, producing staleness the real
  /// system never sees.  0 disables the bound (free-running threads).
  int max_iteration_skew = 4;
  std::uint64_t seed = 0x5eedc0de;
  /// Prefetch queue depth (the paper prefetches 10 minibatches).
  std::size_t prefetch_depth = 4;

  /// Optional fault injection (crashes, stalls, SMB freezes); not owned,
  /// must outlive the run.  nullptr = fault-free.  Server events fire at
  /// their offsets from the training start; the run ends only after every
  /// planned segment corruption has fired, while a freeze or fail-stop
  /// still pending when the workers finish is dropped.
  const fault::FaultInjector* faults = nullptr;
  /// A worker whose heartbeat is older than this is declared dead and
  /// excluded from termination and pacing (graceful degradation).  Must
  /// exceed the worst-case gap between a live worker's reports — an
  /// iteration plus any injected stall.  <= 0 disables liveness sweeping
  /// (a dead worker then hangs min/mean termination, the pre-fault
  /// behaviour).
  double heartbeat_timeout_seconds = 2.0;

  /// What the run does about injected failures (failover / re-admission).
  /// Defaults preserve the degrade-only behaviour.
  recovery::RecoveryPolicy recovery;
  /// Crash-consistent checkpointing + resume; disabled unless a directory
  /// is set.
  recovery::CheckpointConfig checkpoint;
  /// Data-integrity policy: segment checksums, verification, read-repair,
  /// scrubbing.  Defaults keep the checksum-free pre-integrity behaviour.
  recovery::IntegrityPolicy integrity;

  /// Optional elastic-membership plan (cold joins and voluntary drains at
  /// planned iterations); not owned, must outlive the run.  nullptr = the
  /// fixed-membership behaviour.  Requires group_size == 1: elastic workers
  /// run pure SEASGD (a hybrid group cannot shrink mid-collective).
  const elastic::MembershipPlan* membership = nullptr;
  /// Straggler detection/quarantine policy and elastic pacing knobs; the
  /// detector runs only when membership_policy.straggler_detection is set
  /// (which also requires group_size == 1).  The run then does not stop
  /// while a worker is quarantined: the slot is readmitted or fenced first.
  /// A crashed worker the detector quarantined is fenced only by the
  /// heartbeat sweep, so with heartbeat_timeout_seconds <= 0 it hangs the
  /// run, as it hangs pacing.
  elastic::MembershipPolicy membership_policy;

  DistTrainOptions() {
    train_data.size = 2048;
    test_data.size = 512;
    test_data.seed = 0x7e57;
    solver.base_lr = 0.05;
    solver.momentum = 0.9;
    solver.lr_policy = dl::LrPolicy::kStep;
    solver.gamma = 0.1;
    solver.step_size = 1 << 30;  // trainers overwrite with 4-epoch steps
  }
};

/// One point of a training curve (evaluated on the shared/global weights).
struct EpochMetrics {
  int epoch = 0;
  double test_loss = 0.0;
  double test_accuracy = 0.0;
};

/// Per-worker timing/throughput telemetry of a functional training run —
/// the software counterpart of the paper's per-iteration computation vs
/// communication breakdown.
struct WorkerStats {
  std::int64_t iterations = 0;
  std::int64_t exchanges = 0;        ///< SEASGD exchanges performed
  double train_seconds = 0.0;        ///< forward + backward + solver
  double exchange_seconds = 0.0;     ///< SEASGD exchange incl. T.A5 blocking
  double collective_seconds = 0.0;   ///< intra-group allreduce/broadcast
  double data_wait_seconds = 0.0;    ///< blocked on the prefetcher
};

/// How a worker's participation in a run ended.
enum class WorkerOutcome : std::uint8_t {
  kFinished = 0,    ///< completed training normally
  kCrashed = 1,     ///< fail-stopped by fault injection
  kFenced = 2,      ///< declared dead by survivors (missed heartbeats) and exited
  kDrained = 3,     ///< left the run voluntarily at its planned drain point
  kEvicted = 4,     ///< removed by the straggler detector (repeated violations)
  kNeverJoined = 5, ///< a reserved join slot whose worker never joined
};

/// Result of a functional training run.  The recovery, membership and
/// integrity outcome it shares with the timed models is the RunOutcome base.
struct TrainResult : cluster::RunOutcome {
  std::vector<EpochMetrics> curve;
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  std::vector<std::int64_t> iterations_per_worker;
  std::vector<WorkerStats> worker_stats;
  /// Per-worker outcome; the curve reflects only kFinished workers' last
  /// contributions once their peers dropped out.
  std::vector<WorkerOutcome> worker_outcomes;
  /// Workers that did not finish (crashed or fenced), ascending.
  std::vector<int> dead_workers;
  /// Checkpoints written during the run, and the iteration sum restored
  /// from a checkpoint at start (0 for a fresh run).
  std::int64_t checkpoints_taken = 0;
  std::int64_t resumed_iterations = 0;
  /// Checkpoint rollbacks forced by unrepairable segments.
  std::int64_t integrity_rollbacks = 0;
  double wall_seconds = 0.0;
};

/// Fills the membership part of `outcome` from the run's `service`: the
/// joined, drained, rebalance and quarantine counts, and the `planned`
/// changes the service's ledger shows executed.  Both stacks call it with
/// their own planned schedule, so equal lists mean identical membership
/// histories.
inline void fill_membership_outcome(cluster::RunOutcome& outcome,
                                    const elastic::MembershipService& service,
                                    const std::vector<elastic::MembershipChange>& planned) {
  outcome.joined_workers = service.joined();
  outcome.drained_workers = service.drained();
  outcome.rebalances = service.rebalances();
  outcome.quarantine_events = service.quarantine_events();
  outcome.membership_events = common::executed_events(
      planned, service.ledger(), elastic::MembershipAction::kShardRebalance);
}

}  // namespace shmcaffe::core
