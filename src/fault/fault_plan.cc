#include "fault/fault_plan.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/rng.h"
#include "common/simd.h"

namespace shmcaffe::fault {

const char* to_string(FaultKind kind) {
  // Exhaustive by construction: no `default`, so -Wswitch flags any kind
  // added to the enum but forgotten here.
  switch (kind) {
    case FaultKind::kWorkerCrash: return "worker_crash";
    case FaultKind::kWorkerStall: return "worker_stall";
    case FaultKind::kServerFreeze: return "server_freeze";
    case FaultKind::kServerFailStop: return "server_fail_stop";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kDatagramDrop: return "datagram_drop";
    case FaultKind::kSegmentCorruption: return "segment_corruption";
    case FaultKind::kTornWrite: return "torn_write";
  }
  __builtin_unreachable();
}

FaultPlan FaultPlan::generate(const FaultPlanSpec& spec) {
  FaultPlan plan;
  common::Rng rng(spec.seed);

  // Iteration-indexed worker faults: visit workers in index order so the
  // draw sequence — and therefore the plan — is a pure function of the spec.
  const std::int64_t hi_iter = std::max<std::int64_t>(1, spec.horizon_iterations - 1);
  common::Rng worker_rng = rng.fork(0x77);
  for (int w = 0; w < spec.workers; ++w) {
    if (spec.crash_probability > 0.0 && worker_rng.chance(spec.crash_probability)) {
      FaultEvent event;
      event.kind = FaultKind::kWorkerCrash;
      event.target = w;
      event.iteration = worker_rng.uniform_int(1, hi_iter);
      plan.add(event);
    }
    if (spec.stall_probability > 0.0 && worker_rng.chance(spec.stall_probability)) {
      FaultEvent event;
      event.kind = FaultKind::kWorkerStall;
      event.target = w;
      event.iteration = worker_rng.uniform_int(1, hi_iter);
      event.duration_seconds =
          spec.mean_stall_seconds * worker_rng.uniform(0.5, 1.5);
      plan.add(event);
    }
  }

  common::Rng server_rng = rng.fork(0x5e);
  for (int s = 0; s < spec.servers; ++s) {
    if (spec.freeze_probability > 0.0 && server_rng.chance(spec.freeze_probability)) {
      FaultEvent event;
      event.kind = FaultKind::kServerFreeze;
      event.target = s;
      event.start_seconds = server_rng.uniform(0.0, spec.horizon_seconds);
      event.duration_seconds =
          spec.mean_freeze_seconds * server_rng.uniform(0.5, 1.5);
      plan.add(event);
    }
  }

  common::Rng link_rng = rng.fork(0x11);
  for (int l = 0; l < spec.links; ++l) {
    if (spec.link_flap_probability > 0.0 && link_rng.chance(spec.link_flap_probability)) {
      FaultEvent event;
      event.kind = link_rng.chance(0.5) ? FaultKind::kLinkDown : FaultKind::kLinkDegrade;
      event.target = l;
      event.start_seconds = link_rng.uniform(0.0, spec.horizon_seconds);
      event.duration_seconds = spec.mean_flap_seconds * link_rng.uniform(0.5, 1.5);
      event.severity = event.kind == FaultKind::kLinkDown ? 0.0 : spec.degrade_severity;
      plan.add(event);
    }
  }

  common::Rng corrupt_rng = rng.fork(0xc0);
  for (int s = 0; s < spec.servers; ++s) {
    if (spec.corruption_probability > 0.0 && corrupt_rng.chance(spec.corruption_probability)) {
      FaultEvent event;
      event.kind = FaultKind::kSegmentCorruption;
      event.target = s;
      event.start_seconds = corrupt_rng.uniform(0.0, spec.horizon_seconds);
      event.severity = static_cast<double>(std::max(1, spec.corruption_bit_flips));
      // Nonzero marker with the high bit clear (the torn-write marker space
      // owns the high bit); doubles as the bit-position seed.
      event.sequence = 1 + corrupt_rng.next_below(0x7fffffffffffffffULL);
      plan.add(event);
    }
  }

  common::Rng torn_rng = rng.fork(0x7e);
  for (int s = 0; s < spec.servers; ++s) {
    if (spec.torn_write_probability > 0.0 && spec.writes_per_server > 0 &&
        torn_rng.chance(spec.torn_write_probability)) {
      FaultEvent event;
      event.kind = FaultKind::kTornWrite;
      event.target = s;
      event.sequence = static_cast<std::uint64_t>(
          torn_rng.uniform_int(1, static_cast<std::int64_t>(spec.writes_per_server)));
      event.severity = spec.torn_write_fraction;
      plan.add(event);
    }
  }

  if (spec.datagram_drop_rate > 0.0 && spec.datagram_count > 0) {
    common::Rng drop_rng = rng.fork(0xd6);
    for (std::uint64_t seq = 0; seq < spec.datagram_count; ++seq) {
      if (drop_rng.chance(spec.datagram_drop_rate)) {
        FaultEvent event;
        event.kind = FaultKind::kDatagramDrop;
        event.sequence = seq;
        plan.add(event);
      }
    }
  }
  return plan;
}

std::uint64_t FaultPlan::fingerprint() const {
  // FNV-1a over the canonical field encoding of every event, in order.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const FaultEvent& event : events_) {
    const std::uint64_t words[7] = {static_cast<std::uint64_t>(event.kind),
                                    static_cast<std::uint64_t>(event.target),
                                    static_cast<std::uint64_t>(event.iteration),
                                    std::bit_cast<std::uint64_t>(event.start_seconds),
                                    std::bit_cast<std::uint64_t>(event.duration_seconds),
                                    std::bit_cast<std::uint64_t>(event.severity),
                                    event.sequence};
    hash = common::simd::fnv1a_words(words, sizeof(words), hash);
  }
  return hash;
}

std::string FaultPlan::describe() const {
  std::string out;
  char line[160];
  for (const FaultEvent& event : events_) {
    std::snprintf(line, sizeof(line),
                  "%s target=%d iter=%lld start=%.3fs dur=%.3fs sev=%.2f seq=%llu\n",
                  to_string(event.kind), event.target,
                  static_cast<long long>(event.iteration), event.start_seconds,
                  event.duration_seconds, event.severity,
                  static_cast<unsigned long long>(event.sequence));
    out += line;
  }
  return out;
}

}  // namespace shmcaffe::fault
