// The recovery schedule: one pure function from (FaultPlan, RecoveryPolicy)
// to the ordered list of recovery actions a run will take.
//
// Both training stacks — the functional thread trainer and the discrete-
// event simulator — derive their recovery behaviour from this single
// function, so "the same plan produces the identical recovery schedule in
// both stacks" holds by construction; each stack additionally reports the
// actions it *actually executed* (executed_recovery), and tests assert the
// executed lists match the planned one and each other.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/run_event.h"
#include "fault/fault_plan.h"

namespace shmcaffe::recovery {

/// What the run does about injected failures.  All defaults preserve the
/// pre-recovery behaviour (failures degrade, nothing heals) except SMB
/// failover, which is a no-op without replicas and therefore safe-on.
struct RecoveryPolicy {
  /// Fail over a replicated SMB when its primary fail-stops.
  bool smb_failover = true;
  /// Respawn a replacement for a crashed worker (re-admission).
  bool respawn_crashed = false;
  /// Modelled failure-detection + promotion latency (sim timing).
  double failover_seconds = 0.25;
  /// Modelled respawn + W_g adoption latency before the replacement's first
  /// iteration (sim timing; the functional stack pays real attach cost).
  double readmit_delay_seconds = 0.5;
};

enum class RecoveryAction : std::uint8_t {
  kSmbFailover,    ///< promote a backup replica of SMB server `target`
  kWorkerReadmit,  ///< re-admit worker `target` after its crash
};

[[nodiscard]] const char* to_string(RecoveryAction action);

/// One planned (or executed) recovery action: `target` is the physical
/// server index (failover) or worker rank (readmit); `key` is the crash
/// iteration for readmits and -1 for failovers.
using RecoveryEvent = common::RunEvent<RecoveryAction>;

/// Expands a fault plan into the recovery actions `policy` mandates:
/// a failover per fail-stopped server, a re-admission per crashed worker
/// (earliest crash only — a worker dies once).  Deterministically ordered:
/// failovers by (fail-stop time, target), then readmits by (iteration,
/// target).
[[nodiscard]] SHMCAFFE_DETERMINISTIC std::vector<RecoveryEvent> recovery_schedule(
    const fault::FaultPlan& plan, const RecoveryPolicy& policy);

/// The recovery actions a run executed, in planned order: recovery_schedule
/// filtered by a ledger holding one kSmbFailover per replica a shard's
/// failover log names (`failover_logs[s]` lists the replicas that failed
/// while active; target s * replicas + replica) and one kWorkerReadmit per
/// recovered target.  Both stacks call it with what they observed: the
/// functional trainer its recovered slots, the simulator each recovered
/// group's leading slot.
[[nodiscard]] SHMCAFFE_DETERMINISTIC std::vector<RecoveryEvent> executed_recovery(
    const fault::FaultPlan& plan, const RecoveryPolicy& policy,
    std::span<const std::vector<int>> failover_logs, int replicas,
    std::span<const int> recovered_targets);

}  // namespace shmcaffe::recovery
