// The integrity schedule: one pure function from (FaultPlan, IntegrityPolicy)
// to the ordered list of integrity events a run is expected to produce.
//
// It is the data-plane sibling of recovery_schedule (schedule.h): both
// training stacks — the functional thread trainer and the discrete-event
// simulator — derive their expected integrity behaviour from this single
// function, then filter it by what *actually executed* (which corruptions
// fired, which were detected by checksum verification, which were repaired
// by replica vote, which armed torn writes landed) through their
// common::EventLedger.  A faithfully executed run reproduces the planned
// list, and the two stacks must agree with each other on the same plan.
//
// Every event is keyed by the fault's *marker* (fault/fault_plan.h): the
// plan-drawn nonzero identity a corruption stamps on the chunks it poisons.
// Detection and repair attribute themselves to markers, so a stack records
// each executed integrity event by (action, marker) — no timing enters the
// executed list.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/run_event.h"
#include "fault/fault_plan.h"

namespace shmcaffe::recovery {

/// What the run does about silent data corruption.  All defaults keep the
/// pre-integrity behaviour (no checksums, no verification) except repair
/// and scrubbing, which are no-ops until verification is switched on and
/// therefore safe-on.
struct IntegrityPolicy {
  /// Maintain per-chunk FNV-1a checksums on every SMB float segment.
  bool checksum_chunks = false;
  /// Verify checksums before serving reads / accumulating (detection).
  bool verify_on_read = false;
  /// On detection, read the peer replicas, vote, and rewrite the bad copy
  /// (ReplicatedSmb read-repair).  Without it a detected corruption
  /// surfaces to the trainer, which degrades to a checkpoint rollback.
  bool read_repair = true;
  /// Walk and verify all segments during checkpoint quiesce windows (and
  /// once at the end of training), repairing what the walk finds.
  bool scrub_on_checkpoint = true;
  /// Checksum granularity in floats (16 KiB chunks by default).
  std::size_t chunk_floats = 4096;
  /// Modelled cost of one replica repair (sim timing only).
  double sim_repair_seconds = 0.002;

  /// True when the integrity data path (checksums) is active at all.
  [[nodiscard]] bool enabled() const { return checksum_chunks || verify_on_read; }
};

enum class IntegrityAction : std::uint8_t {
  kCorruptionInjected,  ///< a kSegmentCorruption event fired on server `target`
  kCorruptionDetected,  ///< checksum verification caught the marker
  kCorruptionRepaired,  ///< replica vote rewrote the poisoned copy
  kTornWriteApplied,    ///< an armed kTornWrite reached its ordinal and fired
};

[[nodiscard]] const char* to_string(IntegrityAction action);

/// One planned (or executed) integrity event: `target` is the physical SMB
/// server index the fault hits, `key` the fault marker (torn writes: the
/// high bit set, so the key reads negative).
using IntegrityEvent = common::RunEvent<IntegrityAction>;

/// Expands a fault plan into the integrity events `policy` mandates, in plan
/// order: every corruption contributes an injection, plus a detection if
/// verification is on, plus a repair if read-repair is also on; every torn
/// write contributes an application plus the same detection/repair pair.
[[nodiscard]] SHMCAFFE_DETERMINISTIC std::vector<IntegrityEvent> integrity_schedule(
    const fault::FaultPlan& plan, const IntegrityPolicy& policy);

}  // namespace shmcaffe::recovery
