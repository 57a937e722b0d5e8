// Common result types of the timed platform models, and the run outcome
// they share with the functional trainer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/run_event.h"
#include "common/units.h"

// The three control families' action enums, declared opaquely so the run
// outcome can hold their event lists without including the family headers
// (cluster sits below recovery and elastic in the include layering).  The
// definitions live in recovery/schedule.h, recovery/integrity.h and
// elastic/membership.h; a mismatched underlying type fails to compile in
// any translation unit that sees both declarations.
namespace shmcaffe::recovery {
enum class RecoveryAction : std::uint8_t;
enum class IntegrityAction : std::uint8_t;
}  // namespace shmcaffe::recovery
namespace shmcaffe::elastic {
enum class MembershipAction : std::uint8_t;
}  // namespace shmcaffe::elastic

namespace shmcaffe::cluster {

/// One family's executed events, in planned order; std::nullopt when the
/// run did not track the family.  A bench prints common::fingerprint of the
/// list (0 for an untracked family).
template <typename Action>
using ExecutedEvents = std::optional<std::vector<common::RunEvent<Action>>>;

/// What a run did about recovery, elastic membership and data integrity —
/// the fields the functional trainer (core::TrainResult) and the timed
/// models (PlatformTiming) report alike, so one plan can be checked across
/// the two stacks.  The functional stack *observes* each value from its
/// services, servers and threads; the simulator *models* it from the plan,
/// the policy and its own modelled timing.  The executed event lists are
/// the contract: equal lists mean both stacks executed the same schedule.
struct RunOutcome {
  /// Worker slots re-admitted mid-run, ascending.  Functional: slots whose
  /// fenced or crashed worker was respawned or recovered.  Model: the
  /// leading slot of each group whose replacement ran.  A slot can also be
  /// dead or crashed: its first life died, it finished under a new one.
  std::vector<int> recovered_workers;
  /// SMB primary failovers executed across all shard ensembles (observed
  /// from each ensemble's failover log; modelled per failed active replica).
  std::int64_t smb_failovers = 0;
  /// The recovery actions executed (recovery::executed_recovery); tracked
  /// when the run has a fault plan.
  ExecutedEvents<recovery::RecoveryAction> recovery_events;
  /// Elastic membership, read from the run's elastic::MembershipService on
  /// both stacks (core::fill_membership_outcome): workers that cold-joined
  /// and that voluntarily drained mid-run, ascending; shard-map rebalances
  /// executed; straggler quarantine demotions.
  std::vector<int> joined_workers;
  std::vector<int> drained_workers;
  std::int64_t rebalances = 0;
  std::int64_t quarantine_events = 0;
  /// The membership transitions executed: the planned schedule filtered by
  /// the service's ledger.  Tracked when the run is elastic or
  /// straggler-aware.
  ExecutedEvents<elastic::MembershipAction> membership_events;
  /// Data integrity.  Corruption markers caught by checksum verification,
  /// once per server that caught each (functional: collected from the SMB
  /// servers; model: each planned corruption or torn write that lands on a
  /// live replica before the run ends, when verify-on-read is on), replica
  /// copies rewritten by read-repair, and scrub passes performed
  /// (functional: counted by the ensembles; model: the final scrub, one
  /// pass per shard).
  std::int64_t corruptions_detected = 0;
  std::int64_t integrity_repairs = 0;
  std::int64_t scrub_passes = 0;
  /// The integrity events executed: recovery::integrity_schedule filtered
  /// by the run's integrity ledger.  Tracked when the run has a fault plan.
  ExecutedEvents<recovery::IntegrityAction> integrity_events;
};

/// Per-iteration timing breakdown averaged over workers and iterations.
/// `comm` is the non-hidden communication time — everything in an iteration
/// that is not the worker's own minibatch computation (transfer time,
/// blocked-on-lock time, and synchronous waiting for peers), exactly how the
/// paper measures "communication time ... not overlapped with the
/// computation time" (§IV-E).
struct PlatformTiming : RunOutcome {
  SimTime mean_comp = 0;
  SimTime mean_comm = 0;
  [[nodiscard]] SimTime mean_iteration() const { return mean_comp + mean_comm; }
  /// Fraction of the iteration spent communicating.
  [[nodiscard]] double comm_ratio() const {
    const SimTime iter = mean_iteration();
    return iter > 0 ? static_cast<double>(mean_comm) / static_cast<double>(iter) : 0.0;
  }
  SimTime makespan = 0;          ///< whole simulated run
  std::int64_t iterations = 0;   ///< per worker (the configured target)
  /// Sum over workers of iterations actually completed — equals
  /// workers * iterations unless fault injection crashed somebody.
  std::int64_t completed_worker_iterations = 0;
  /// Workers removed mid-run by an injected fail-stop crash.
  int crashed_workers = 0;
  /// Simulated iterations observed running further behind the cohort
  /// maximum than the policy staleness bound (a heterogeneity health
  /// metric; see bench_ext_elastic).
  std::int64_t staleness_violations = 0;
  /// Mean injection-to-detection latency (next sharing block, or the final
  /// scrub for corruptions landing after the last exchange).
  SimTime detection_latency = 0;
  /// Total modelled repair cost charged into the makespan
  /// (IntegrityPolicy::sim_repair_seconds per rewritten copy).
  SimTime repair_time = 0;
};

}  // namespace shmcaffe::cluster
