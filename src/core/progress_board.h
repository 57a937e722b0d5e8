// Shared training-progress board over SMB counters (§III-E).
//
// BVLC Caffe stops after a fixed iteration count, so asynchronous workers
// with computation-speed deviations finish at different times while still
// occupying their GPUs.  ShmCaffe publishes every worker's completed
// iteration count in an SMB counter segment; workers consult it each
// iteration and align their termination by one of three criteria:
//   1. everyone stops when the master worker reaches its target,
//   2. everyone stops as soon as the first worker reaches its target,
//   3. everyone stops when the average iteration count reaches the target.
//
// Fault tolerance: every worker additionally owns a heartbeat slot it
// stamps on each report.  Survivors sweep the board; a worker whose
// heartbeat is older than the timeout is declared dead and excluded from
// the min/mean reductions and the termination criteria (with the master
// role falling back to the lowest-indexed live worker), so a fail-stopped
// worker costs only its own contribution instead of hanging the run.  A
// declared-dead worker that wakes up again (a stall that outlived the
// timeout) finds itself fenced and must exit — dead is final *for that
// life*.  Re-admission (the recovery layer) gives the worker slot a fresh
// life under a new incarnation number: readmit() flips the slot back to
// alive and bumps the incarnation, and every report/heartbeat carries the
// caller's incarnation so writes from the previous life are ignored (stale
// heartbeats cannot resurrect a fenced worker, stale reports cannot corrupt
// the counters the termination criteria read).
//
// Elastic membership (the elastic layer): the board is created with a
// *capacity* that may exceed the initial worker count.  Slots beyond the
// initial workers start kAbsent (excluded from every reduction) and are
// claimed by cold joins through admit(), which — like readmit() — hands the
// new life a fresh incarnation; a join therefore never reuses a dead
// rank's slot.  Voluntary leavers are marked kDrained, stragglers are
// demoted to kQuarantined (still training, no longer counted in the
// reductions, but holding the cohort's stop while their fate is open —
// see should_stop()) and promoted back by sweep_stragglers(), and repeated
// offenders end kEvicted.  Each report also folds the worker's
// instantaneous iteration rate into a per-worker EWMA slot; the straggler
// sweep projects a silent worker's staleness as heartbeat-silence x
// mean-live-rate (see elastic/straggler.h for why raw staleness cannot
// work under skew pacing).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ordered_mutex.h"
#include "core/config.h"
#include "elastic/straggler.h"
#include "smb/service.h"

namespace shmcaffe::core {

class ProgressBoard {
 public:
  /// Liveness/participation state of a worker slot, stored on the board.
  enum class WorkerState : std::int64_t {
    kAlive = 0,
    kFinished = 1,     ///< completed training normally
    kDead = 2,         ///< declared dead (missed heartbeats) — final
    kAbsent = 3,       ///< capacity slot nobody has joined yet
    kDrained = 4,      ///< left the run voluntarily (elastic drain)
    kQuarantined = 5,  ///< straggler: training but not contributing
    kEvicted = 6,      ///< removed after repeated staleness violations — final
  };

  /// Incarnation of every worker's first life.  0 is the "unfenced"
  /// sentinel legacy callers pass, so real incarnations start at 1.
  static constexpr std::int64_t kFirstIncarnation = 1;

  /// EWMA smoothing of the per-worker iteration-rate slots (one report =
  /// one sample); fixed for every board so the two stacks agree.
  static constexpr double kRateEwmaAlpha = 0.25;

  /// Master constructs with create=true; slaves attach with create=false.
  /// `capacity` (create only; 0 = `workers`) reserves slots beyond the
  /// initial worker count for cold joins — they start kAbsent.  Attach
  /// derives the capacity from the existing segment.
  ProgressBoard(smb::SmbService& server, smb::ShmKey key, int workers, bool create,
                int capacity = 0);

  /// Publishes `iterations` completed by `worker` (also stamps its
  /// heartbeat and folds the implied iteration rate into the worker's rate
  /// EWMA).  A nonzero `incarnation` that is no longer the worker's
  /// current one marks a stale life: the report is dropped.
  void report(int worker, std::int64_t iterations, std::int64_t incarnation = 0);

  /// Stamps `worker`'s heartbeat without changing its iteration count (for
  /// long waits — pacing loops, collectives — between reports).  Stale
  /// incarnations are dropped like stale reports.
  void heartbeat(int worker, std::int64_t incarnation = 0);

  [[nodiscard]] std::int64_t iterations_of(int worker) const;
  /// Reductions over *contributing* workers (alive or finished): dead,
  /// absent, drained, quarantined, and evicted slots are excluded.
  [[nodiscard]] std::int64_t min_iterations() const;
  [[nodiscard]] std::int64_t max_iterations() const;
  [[nodiscard]] double mean_iterations() const;

  // --- liveness ----------------------------------------------------------

  void mark_finished(int worker);
  void mark_dead(int worker);
  [[nodiscard]] WorkerState state_of(int worker) const;
  [[nodiscard]] bool is_dead(int worker) const {
    return state_of(worker) == WorkerState::kDead;
  }
  /// Contributing workers (alive or finished).
  [[nodiscard]] int live_count() const;
  /// True while any slot is kQuarantined (its fate still open).
  [[nodiscard]] bool any_quarantined() const;
  [[nodiscard]] std::vector<int> dead_workers() const;
  /// Total slots (initial workers + join capacity).
  [[nodiscard]] int capacity() const { return capacity_; }

  /// Declares every alive worker whose heartbeat is older than
  /// `timeout_seconds` dead; returns how many were newly declared.  Sweeps
  /// are serialised: if another thread is already scanning, returns 0
  /// immediately (that sweep covers this caller too).
  int sweep_dead(double timeout_seconds);

  /// The master role for kMasterFinishes: the lowest-indexed contributing
  /// worker (0 while the real master lives).
  [[nodiscard]] int acting_master() const;

  // --- re-admission (recovery layer) -------------------------------------

  /// Current incarnation of `worker`'s board slot (starts at
  /// kFirstIncarnation; bumped by every readmit()).
  [[nodiscard]] std::int64_t incarnation_of(int worker) const;

  /// True if `incarnation` is still `worker`'s live incarnation.  0 (the
  /// legacy sentinel) is always considered current.
  [[nodiscard]] bool incarnation_is_current(int worker, std::int64_t incarnation) const {
    return incarnation == 0 || incarnation == incarnation_of(worker);
  }

  /// Re-admits a dead worker slot: bumps the incarnation (fencing the
  /// previous life's heartbeats and reports), resets the slot to alive with
  /// zero iterations and startup heartbeat grace, and returns the new
  /// incarnation the re-admitted worker must stamp everything with.
  std::int64_t readmit(int worker);

  // --- elastic membership -------------------------------------------------

  /// Claims a kAbsent capacity slot for a cold join: same slot reset as
  /// readmit() under a freshly bumped incarnation, which the joiner must
  /// stamp everything with.
  std::int64_t admit(int worker);

  /// Marks a voluntary leaver; it stops contributing to every reduction.
  void mark_drained(int worker);
  /// Marks a straggler evicted (final, like kDead).
  void mark_evicted(int worker);

  /// Per-worker iteration rate (EWMA over reports), iterations/second.
  [[nodiscard]] double rate_of(int worker) const;
  /// Mean rate over alive workers with an estimate; falls back to the
  /// quarantined/finished workers' rates when no alive worker has one.
  [[nodiscard]] double mean_live_rate() const;

  /// The straggler detector: quarantines every alive worker whose
  /// projected staleness (heartbeat silence x mean live rate) exceeds the
  /// policy bound, or whose silence reaches policy.quarantine_stall_seconds
  /// and projects past the readmit bound — or evicts it on its policy.evict_after_violations-th violation — and
  /// readmits every quarantined worker whose projection collapsed back
  /// under the readmit bound (see elastic/straggler.h).  Serialised like
  /// sweep_dead (concurrent callers on this object skip).  Returns the
  /// transitions applied so the trainer can mirror them into the
  /// MembershipService.
  std::vector<elastic::StragglerTransition> sweep_stragglers(
      const elastic::MembershipPolicy& policy);

  /// Raises the global stop flag (idempotent).
  void raise_stop();
  [[nodiscard]] bool stop_raised() const;

  /// Evaluates the termination rule for `worker` having completed
  /// `my_iterations` of `target_iterations`; raises the stop flag when the
  /// rule fires.  Returns true if the worker should stop now.  A positive
  /// `heartbeat_timeout_seconds` additionally sweeps for dead peers; a
  /// worker that was itself declared dead or evicted is told to stop
  /// (fenced).  A quarantined worker neither stops nor decides for the
  /// cohort: it keeps training toward readmission until the stop flag is
  /// raised.  No worker raises the stop while any slot is quarantined: the
  /// slot is resolved first, by readmission (it reported again) or by the
  /// heartbeat fence, so a run never ends with a straggler's fate
  /// undecided.  Only sweep_stragglers() quarantines a slot, so a run
  /// without straggler detection never holds the stop.
  bool should_stop(TerminationCriterion criterion, int worker, std::int64_t my_iterations,
                   std::int64_t target_iterations, double heartbeat_timeout_seconds = 0.0,
                   std::int64_t incarnation = 0);

  void release();

 private:
  // Slot layout over capacity c: [0, c) iteration counts; c the stop flag;
  // [c+1, 2c+1) heartbeat stamps (steady-clock ns); [2c+1, 3c+1)
  // WorkerState values; [3c+1, 4c+1) incarnation numbers; [4c+1, 5c+1)
  // iteration-rate EWMAs (fixed-point, kRateFixedPoint units per
  // iteration/second); [5c+1, 6c+1) straggler violation counts.
  static constexpr double kRateFixedPoint = 1e6;
  [[nodiscard]] std::size_t stop_slot() const { return static_cast<std::size_t>(capacity_); }
  [[nodiscard]] std::size_t heartbeat_slot(int worker) const {
    return static_cast<std::size_t>(capacity_ + 1 + worker);
  }
  [[nodiscard]] std::size_t state_slot(int worker) const {
    return static_cast<std::size_t>(2 * capacity_ + 1 + worker);
  }
  [[nodiscard]] std::size_t incarnation_slot(int worker) const {
    return static_cast<std::size_t>(3 * capacity_ + 1 + worker);
  }
  [[nodiscard]] std::size_t rate_slot(int worker) const {
    return static_cast<std::size_t>(4 * capacity_ + 1 + worker);
  }
  [[nodiscard]] std::size_t violation_slot(int worker) const {
    return static_cast<std::size_t>(5 * capacity_ + 1 + worker);
  }

  /// True for states included in the min/mean/master reductions.
  [[nodiscard]] bool contributing(int worker) const {
    const WorkerState state = state_of(worker);
    return state == WorkerState::kAlive || state == WorkerState::kFinished;
  }

  /// Resets a slot for a fresh life under a bumped incarnation (the shared
  /// body of readmit() and admit()).
  std::int64_t fresh_life(int worker);

  /// The scan body of sweep_dead(); requires sweep_mutex_ held.
  int sweep_dead_locked(double timeout_seconds) SHMCAFFE_REQUIRES(sweep_mutex_);
  /// The scan body of sweep_stragglers(); requires sweep_mutex_ held.
  std::vector<elastic::StragglerTransition> sweep_stragglers_locked(
      const elastic::MembershipPolicy& policy) SHMCAFFE_REQUIRES(sweep_mutex_);

  // server_/capacity_ are set once in the ctor; handle_ is only reset by
  // release() (caller-serialised teardown), so none are sweep-guarded.
  smb::SmbService* server_ SHMCAFFE_UNGUARDED;
  smb::Handle handle_ SHMCAFFE_UNGUARDED;
  int capacity_ SHMCAFFE_UNGUARDED;
  /// Serialises dead-worker and straggler sweeps through this object:
  /// concurrent callers try-lock and skip instead of queueing behind the
  /// scan.  Each worker attaches its own board, so this does not serialise
  /// sweeps across workers; a caller that records straggler transitions
  /// elsewhere serialises those sweeps itself (the trainer does).  Held
  /// across SMB counter reads/writes, hence ranked below smb.server.table.
  common::OrderedMutex sweep_mutex_{"core.progress_board.sweep",
                                    common::lockrank::kProgressBoardSweep};
};

}  // namespace shmcaffe::core
