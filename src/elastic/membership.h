// Elastic membership for a live training run (ROADMAP item 4).
//
// The recovery layer (PR 3) can only *replace* a crashed worker under a
// fixed topology.  This layer generalises that into full membership
// elasticity: workers may *cold-join* a running SEASGD session (attach to
// the SMB, adopt W_g, take a fresh progress-board slot), *drain* out of it
// voluntarily (flush the pending increment, leave cleanly), or be *evicted*
// after repeated straggler violations — all without restarting the run.
//
// Three pieces, mirroring recovery/schedule.h's planned-vs-executed design:
//
//   * MembershipPlan — the deterministic join/drain schedule a run follows
//     (iteration-indexed, like a FaultPlan).  Both training stacks consume
//     the same plan.
//   * membership_schedule() — a pure function from (plan, fault plan,
//     policy) to the ordered list of membership changes the run *will*
//     execute: joins, drains, straggler quarantine/readmit/evict chains
//     (derived from injected stalls long enough to trip the detector), and
//     the shard rebalance that follows every membership change.  Both
//     stacks filter this planned list by the changes they *actually*
//     executed (common::executed_events over the service's ledger), so
//     "functional == sim" is one list comparison, as for recovery and
//     integrity (common/run_event.h).
//   * MembershipService — the run-time registry both stacks drive: it owns
//     the monotonic *membership epoch* (layered on recovery/epoch.h's
//     ServiceEpoch fencing: every change of the member set bumps it, so
//     shard routing cached under an older epoch is stale by construction),
//     the deterministic worker->home-shard map that rebalances on every
//     membership change, and the ledger of executed changes the filter
//     consumes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/run_event.h"
#include "recovery/epoch.h"

namespace shmcaffe::fault {
class FaultPlan;
}  // namespace shmcaffe::fault

namespace shmcaffe::elastic {

/// Generation counter of the member set.  A direct layering on the
/// replicated-SMB service epoch: compare only through recovery/epoch.h's
/// helpers (the `no-naked-epoch` lint rule applies here too).
using MembershipEpoch = recovery::ServiceEpoch;

// --- the plan ---------------------------------------------------------------

enum class MembershipEventKind : std::uint8_t {
  kJoin,   ///< slot `worker` cold-joins once board max-iterations reaches `at_iteration`
  kDrain,  ///< worker `worker` drains at the start of its own iteration `at_iteration`
};

[[nodiscard]] const char* to_string(MembershipEventKind kind);

/// One planned membership event.  Join slots are explicit worker ids at or
/// beyond the initial worker count — a cold join never reuses a dead rank's
/// slot (the board gives it a fresh slot under a new incarnation instead).
struct MembershipEvent {
  MembershipEventKind kind = MembershipEventKind::kJoin;
  int worker = -1;
  std::int64_t at_iteration = -1;

  friend bool operator==(const MembershipEvent&, const MembershipEvent&) = default;
};

/// An ordered, deterministic join/drain schedule (the membership analogue
/// of fault::FaultPlan).  Plain container; both stacks consume one instance.
class MembershipPlan {
 public:
  MembershipPlan() = default;
  explicit MembershipPlan(std::vector<MembershipEvent> events)
      : events_(std::move(events)) {}

  void add(MembershipEvent event) { events_.push_back(event); }
  [[nodiscard]] const std::vector<MembershipEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Join events sorted by (at_iteration, worker); drains likewise.
  [[nodiscard]] std::vector<MembershipEvent> joins() const;
  [[nodiscard]] std::vector<MembershipEvent> drains() const;

  /// The iteration at which `worker` drains, or -1 if it never does.
  [[nodiscard]] std::int64_t drain_iteration(int worker) const;

  /// Board capacity a run honouring this plan needs: the initial worker
  /// count plus every join slot (max join slot + 1 when that is larger).
  [[nodiscard]] int capacity(int initial_workers) const;

 private:
  std::vector<MembershipEvent> events_;
};

// --- the policy -------------------------------------------------------------

/// Straggler-quarantine bounds and elastic-transition latencies.  The
/// detector projects a silent worker's staleness as (silence seconds) x
/// (mean live iteration rate): raw iteration staleness cannot exceed the
/// trainer's max_iteration_skew while the survivors pace against the
/// straggler, so the board extrapolates from heartbeat age instead.
struct MembershipPolicy {
  /// Master switch for the straggler detector (quarantine + eviction).
  /// Off by default: fault-injection suites rely on stalls being survived
  /// or fenced by the heartbeat sweep alone.
  bool straggler_detection = false;
  /// Projected staleness (iterations) beyond which an alive worker is
  /// quarantined: demoted to non-contributing until it catches up.
  double staleness_bound_iterations = 100.0;
  /// Projected staleness below which a quarantined worker is readmitted as
  /// a contributor.
  double readmit_staleness_iterations = 10.0;
  /// Minimum heartbeat silence before the projection is trusted at all —
  /// an absolute guard against quarantining a worker over scheduler noise.
  double min_silence_seconds = 0.1;
  /// Planning bound: an injected stall at least this long trips the
  /// detector (membership_schedule derives planned quarantines from the
  /// fault plan with it, and the functional detector treats a silence this
  /// long as a violation once it projects past the readmit bound).
  double quarantine_stall_seconds = 0.35;
  /// The Nth staleness violation evicts instead of quarantining.
  int evict_after_violations = 3;

  // --- timing model (sim only; the functional stack pays real cost) ------
  double join_delay_seconds = 0.25;   ///< spawn + SMB attach before catch-up
  double drain_flush_seconds = 0.05;  ///< final increment flush on drain
  double rebalance_seconds = 0.01;    ///< shard-map recompute + adoption
};

// --- planned / executed changes ---------------------------------------------

enum class MembershipAction : std::uint8_t {
  kWorkerJoin,          ///< slot `target` cold-joined the run
  kWorkerDrain,         ///< worker `target` drained voluntarily
  kQuarantine,          ///< worker `target` demoted to non-contributing
  kReadmitContributor,  ///< quarantined worker `target` caught up and readmitted
  kEvict,               ///< worker `target` evicted after repeated violations
  kShardRebalance,      ///< home-shard map recomputed after a membership change
};

[[nodiscard]] const char* to_string(MembershipAction action);

/// One planned (or executed) membership change.  `key` is the planned
/// trigger iteration (board max-iterations for joins, the worker's own
/// iteration for drains and stall-derived quarantines); rebalances inherit
/// it from the membership change that triggered them.
using MembershipChange = common::RunEvent<MembershipAction>;

/// Expands (plan, faults, policy) into the ordered membership changes the
/// run will execute.  Joins and drains come from the plan; quarantine /
/// readmit / evict chains are derived from the fault plan's worker stalls of
/// at least policy.quarantine_stall_seconds (violation N evicts when N
/// reaches policy.evict_after_violations; stalls after a worker's earliest
/// crash, after its drain, or after its eviction derive nothing — the
/// worker is gone).  Every join / drain / evict is followed by its
/// kShardRebalance.  Deterministically ordered by (key, action, target);
/// both stacks filter this list by what actually ran, keeping each
/// kShardRebalance with its trigger.
[[nodiscard]] SHMCAFFE_DETERMINISTIC SHMCAFFE_NONBLOCKING std::vector<MembershipChange>
membership_schedule(const MembershipPlan* plan, const fault::FaultPlan* faults,
                    const MembershipPolicy& policy, int initial_workers);

// --- shard assignment -------------------------------------------------------

/// Deterministic balanced home-shard map over the sorted live member list:
/// member i of n gets shard (i * shards) / n (contiguous blocks, so a
/// single join or leave reassigns the fewest workers).  A worker's home
/// shard is where its SEASGD fan-out *starts* — rotating the start spreads
/// concurrent exchanges across the SMB shard ensembles.
[[nodiscard]] SHMCAFFE_NONBLOCKING std::vector<int> shard_assignments(
    std::span<const int> members_sorted, int shards);

// --- the run-time registry --------------------------------------------------

/// Thread-safe membership registry both stacks drive as changes execute.
/// Owns the membership epoch, the home-shard map (rebalanced on every
/// membership change), the ledger of executed changes, and the counters the
/// results report.  All transitions are idempotent per (worker, state):
/// joining an active worker or draining a drained one is a no-op.
class MembershipService {
 public:
  /// `initial_workers` ranks are active from the start; slots in
  /// [initial_workers, capacity) are absent until they join.
  MembershipService(int initial_workers, int capacity, int shards);

  /// Membership changes; each bumps the epoch and rebalances the
  /// home-shard map.  Returns the epoch after the change.
  MembershipEpoch join(int worker, std::int64_t at_iteration);
  MembershipEpoch drain(int worker, std::int64_t at_iteration);
  MembershipEpoch evict(int worker, std::int64_t at_iteration);

  /// Straggler transitions; quarantine does NOT change the member set (the
  /// worker is demoted, not removed), so the epoch and shard map hold.
  void quarantine(int worker, std::int64_t at_iteration);
  void readmit_contributor(int worker, std::int64_t at_iteration);

  [[nodiscard]] MembershipEpoch epoch() const;
  /// The shard index worker `worker`'s SEASGD fan-out starts at (0 for
  /// workers outside the member set).
  [[nodiscard]] int home_shard(int worker) const;
  [[nodiscard]] std::vector<int> members() const;  ///< active ranks, ascending

  // --- result counters ----------------------------------------------------
  [[nodiscard]] std::vector<int> joined() const;   ///< ascending
  [[nodiscard]] std::vector<int> drained() const;  ///< ascending
  [[nodiscard]] std::vector<int> evicted() const;  ///< ascending
  /// Home-shard map recomputations (one per membership change).
  [[nodiscard]] std::int64_t rebalances() const;
  /// Worker->shard assignments that changed across all rebalances.
  [[nodiscard]] std::int64_t reassignments() const;
  [[nodiscard]] std::int64_t quarantine_events() const;
  /// Every executed join, drain, quarantine, readmit and evict, by
  /// (action, worker); rebalances follow their trigger and are not logged.
  [[nodiscard]] common::EventLedger<MembershipAction> ledger() const;

 private:
  enum class Status : std::uint8_t { kAbsent, kActive, kDrained, kEvicted };

  /// Recomputes the home-shard map after a membership change; requires
  /// mutex_ held.
  void rebalance_locked() SHMCAFFE_REQUIRES(mutex_);
  [[nodiscard]] std::vector<int> members_locked() const SHMCAFFE_REQUIRES(mutex_);

  /// Serialises every membership transition and query.  Held across pure
  /// in-memory state only (no SMB access), so it ranks between the
  /// progress-board sweep and the sharded-buffer table.
  mutable common::OrderedMutex mutex_{"elastic.membership.state",
                                      common::lockrank::kElasticMembership};
  int capacity_ SHMCAFFE_GUARDED_BY(mutex_) = 0;
  int shards_ SHMCAFFE_GUARDED_BY(mutex_) = 1;
  std::vector<Status> status_ SHMCAFFE_GUARDED_BY(mutex_);
  std::vector<int> home_shard_ SHMCAFFE_GUARDED_BY(mutex_);
  MembershipEpoch epoch_ SHMCAFFE_GUARDED_BY(mutex_) = recovery::kInitialServiceEpoch;
  std::vector<int> joined_ SHMCAFFE_GUARDED_BY(mutex_);
  std::vector<int> drained_ SHMCAFFE_GUARDED_BY(mutex_);
  std::vector<int> evicted_ SHMCAFFE_GUARDED_BY(mutex_);
  std::int64_t rebalances_ SHMCAFFE_GUARDED_BY(mutex_) = 0;
  std::int64_t reassignments_ SHMCAFFE_GUARDED_BY(mutex_) = 0;
  std::int64_t quarantine_events_ SHMCAFFE_GUARDED_BY(mutex_) = 0;
  common::EventLedger<MembershipAction> ledger_ SHMCAFFE_GUARDED_BY(mutex_);
};

}  // namespace shmcaffe::elastic
