#include "recovery/schedule.h"

#include <algorithm>
#include <map>
#include <utility>

namespace shmcaffe::recovery {

const char* to_string(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kSmbFailover: return "smb_failover";
    case RecoveryAction::kWorkerReadmit: return "worker_readmit";
  }
  return "unknown";
}

std::vector<RecoveryEvent> recovery_schedule(const fault::FaultPlan& plan,
                                             const RecoveryPolicy& policy) {
  // Failovers sort by (fail-stop time, target): every failover completes
  // the same modelled detection latency after its fail-stop, so that is
  // also the order in which they complete.
  std::vector<std::pair<double, RecoveryEvent>> failovers;
  // Earliest crash per worker: a worker fail-stops once, so later crash
  // events for the same target are unreachable and must not schedule a
  // second re-admission.
  std::map<int, std::int64_t> first_crash;
  for (const fault::FaultEvent& event : plan.events()) {
    switch (event.kind) {
      case fault::FaultKind::kServerFailStop:
        if (policy.smb_failover) {
          failovers.push_back(
              {event.start_seconds, {RecoveryAction::kSmbFailover, event.target, -1}});
        }
        break;
      case fault::FaultKind::kWorkerCrash:
        if (policy.respawn_crashed) {
          const auto it = first_crash.find(event.target);
          if (it == first_crash.end() || event.iteration < it->second) {
            first_crash[event.target] = event.iteration;
          }
        }
        break;
      default:
        break;
    }
  }
  std::sort(failovers.begin(), failovers.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.target < b.second.target;
  });
  std::vector<RecoveryEvent> readmits;
  for (const auto& [worker, iteration] : first_crash) {
    readmits.push_back({RecoveryAction::kWorkerReadmit, worker, iteration});
  }
  std::sort(readmits.begin(), readmits.end(),
            [](const RecoveryEvent& a, const RecoveryEvent& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.target < b.target;
            });
  std::vector<RecoveryEvent> schedule;
  for (const auto& failover : failovers) schedule.push_back(failover.second);
  schedule.insert(schedule.end(), readmits.begin(), readmits.end());
  return schedule;
}

std::vector<RecoveryEvent> executed_recovery(const fault::FaultPlan& plan,
                                             const RecoveryPolicy& policy,
                                             std::span<const std::vector<int>> failover_logs,
                                             int replicas,
                                             std::span<const int> recovered_targets) {
  common::EventLedger<RecoveryAction> ledger;
  for (std::size_t shard = 0; shard < failover_logs.size(); ++shard) {
    for (const int replica : failover_logs[shard]) {
      ledger.record(RecoveryAction::kSmbFailover, static_cast<int>(shard) * replicas + replica);
    }
  }
  for (const int target : recovered_targets) {
    ledger.record(RecoveryAction::kWorkerReadmit, target);
  }
  return common::executed_events(recovery_schedule(plan, policy), ledger);
}

}  // namespace shmcaffe::recovery
