// Straggler detection math (pure, header-only).
//
// SEASGD tolerates asynchrony only while staleness stays bounded (the
// source paper's core claim; FireCaffe shows stragglers dominating the
// synchronous alternative).  The trainer's max_iteration_skew pacing makes
// *raw* iteration staleness useless as a detector signal: once a worker
// goes silent, every survivor parks at `skew` iterations ahead of it and
// the gap never widens.  The detector therefore projects staleness from
// heartbeat silence instead:
//
//   projected = (seconds since the worker's last heartbeat)
//             x (mean iteration rate of the live contributors)
//
// i.e. "how many iterations the cohort will have run past this worker by
// now".  Per-worker iteration rates are EWMA-smoothed on the progress
// board (ProgressBoard::report folds each report into the worker's rate
// slot).  Verdicts:
//
//   * alive + projected > staleness_bound (and silence past the absolute
//     noise guard) -> one violation: quarantine, or evict on the Nth;
//   * alive + silent for at least quarantine_stall_seconds while the
//     cohort ran past the readmit bound -> a violation even under the
//     staleness bound, so a stall the plan expects to trip the detector
//     trips it on a slow host too;
//   * quarantined + projected back under the readmit bound (the worker
//     reported recently, so its silence collapsed) -> readmit.
//
// ProgressBoard::sweep_stragglers drives these over the shared board; the
// functions themselves are pure so the policy arithmetic is unit-testable
// without a board.
#pragma once

#include "elastic/membership.h"

namespace shmcaffe::elastic {

/// One EWMA step; a zero `prev` means "no estimate yet" and adopts the
/// sample outright.
[[nodiscard]] inline double ewma(double prev, double sample, double alpha) {
  if (prev <= 0.0) return sample;
  return alpha * sample + (1.0 - alpha) * prev;
}

/// Iterations the cohort runs past a worker silent for `silence_seconds`.
[[nodiscard]] inline double projected_staleness(double silence_seconds,
                                                double mean_live_rate) {
  if (silence_seconds <= 0.0 || mean_live_rate <= 0.0) return 0.0;
  return silence_seconds * mean_live_rate;
}

/// What a straggler sweep decided about one worker.
enum class StragglerVerdict : std::uint8_t {
  kNone,
  kQuarantine,  ///< demote to non-contributing
  kReadmit,     ///< caught up: restore as contributor
  kEvict,       ///< repeated violations: remove from the membership
};

struct StragglerTransition {
  int worker = -1;
  StragglerVerdict verdict = StragglerVerdict::kNone;

  friend bool operator==(const StragglerTransition&, const StragglerTransition&) = default;
};

/// Verdict for an *alive* worker: `prior_violations` staleness violations
/// already on record (the pending one is counted on top).  A silence of at
/// least policy.quarantine_stall_seconds is a violation once the cohort has
/// run past the readmit bound meanwhile, even under the staleness bound:
/// the planning bound promises that such a stall trips the detector, and
/// on a slow host (a sanitizer build, an oversubscribed machine) the
/// projection alone can stay under the staleness bound.  A cohort whose
/// own iterations take that long projects under the readmit bound and is
/// not straggling.
[[nodiscard]] inline StragglerVerdict judge_alive(double silence_seconds,
                                                  double mean_live_rate,
                                                  int prior_violations,
                                                  const MembershipPolicy& policy) {
  if (silence_seconds <= policy.min_silence_seconds) return StragglerVerdict::kNone;
  const double projected = projected_staleness(silence_seconds, mean_live_rate);
  const bool stalled = silence_seconds >= policy.quarantine_stall_seconds &&
                       projected > policy.readmit_staleness_iterations;
  if (!stalled && projected <= policy.staleness_bound_iterations) {
    return StragglerVerdict::kNone;
  }
  return prior_violations + 1 >= policy.evict_after_violations
             ? StragglerVerdict::kEvict
             : StragglerVerdict::kQuarantine;
}

/// Verdict for a *quarantined* worker: readmit once its projected staleness
/// collapses under the readmit bound (a fresh heartbeat does exactly that).
/// A worker still silent past the stall bound is never readmitted, so a
/// slow host's low rate cannot readmit a worker that is still stalled.
[[nodiscard]] inline StragglerVerdict judge_quarantined(double silence_seconds,
                                                        double mean_live_rate,
                                                        const MembershipPolicy& policy) {
  if (silence_seconds >= policy.quarantine_stall_seconds) return StragglerVerdict::kNone;
  return projected_staleness(silence_seconds, mean_live_rate) <=
                 policy.readmit_staleness_iterations
             ? StragglerVerdict::kReadmit
             : StragglerVerdict::kNone;
}

}  // namespace shmcaffe::elastic
