#include "recovery/integrity.h"

#include "smb/server.h"

namespace shmcaffe::recovery {

const char* to_string(IntegrityAction action) {
  switch (action) {
    case IntegrityAction::kCorruptionInjected: return "corruption_injected";
    case IntegrityAction::kCorruptionDetected: return "corruption_detected";
    case IntegrityAction::kCorruptionRepaired: return "corruption_repaired";
    case IntegrityAction::kTornWriteApplied: return "torn_write_applied";
  }
  __builtin_unreachable();
}

std::vector<IntegrityEvent> integrity_schedule(const fault::FaultPlan& plan,
                                               const IntegrityPolicy& policy) {
  std::vector<IntegrityEvent> schedule;
  const auto expand = [&](int target, std::uint64_t marker, IntegrityAction first) {
    const auto key = static_cast<std::int64_t>(marker);
    schedule.push_back({first, target, key});
    if (!policy.verify_on_read) return;
    schedule.push_back({IntegrityAction::kCorruptionDetected, target, key});
    if (policy.read_repair) {
      schedule.push_back({IntegrityAction::kCorruptionRepaired, target, key});
    }
  };
  for (const fault::FaultEvent& event : plan.events()) {
    switch (event.kind) {
      case fault::FaultKind::kSegmentCorruption:
        expand(event.target, event.sequence, IntegrityAction::kCorruptionInjected);
        break;
      case fault::FaultKind::kTornWrite:
        expand(event.target, smb::SmbServer::kTornWriteMarkerBit | event.sequence,
               IntegrityAction::kTornWriteApplied);
        break;
      default:
        break;
    }
  }
  return schedule;
}

}  // namespace shmcaffe::recovery
