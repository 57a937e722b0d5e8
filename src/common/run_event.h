// One record for the planned-vs-executed control events of a run.
//
// Three families of control actions — SMB failover and worker re-admission
// (recovery/schedule.h), elastic membership changes (elastic/membership.h)
// and data-integrity events (recovery/integrity.h) — share one bookkeeping
// scheme, and this header is it:
//
//   * RunEvent<Action>: one event, (action, target, key), where `Action` is
//     the family's action enum and `key` is the family's ordering key (the
//     trigger iteration for recovery and membership, the fault marker for
//     integrity);
//   * EventLedger<Action>: what a stack observed executing, filled as the
//     actions happen;
//   * executed_events(): the one filter — a planned event survives iff the
//     ledger still holds an unconsumed match for it;
//   * fingerprint(), describe(), first_divergence(): the one FNV-1a fold,
//     the one rendering, and the comparison a cross-stack test reports.
//
// Each family's pure schedule builder expands its plan into a planned list;
// both training stacks filter that list through their own ledger, so "the
// functional trainer and the simulator took the same actions" is a list
// comparison, and a mismatch names the first divergent event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/simd.h"

namespace shmcaffe::common {

/// One planned or executed control event.  A family provides
/// `const char* to_string(Action)` in its own namespace (found by ADL).
template <typename Action>
struct RunEvent {
  Action action{};
  int target = -1;        ///< server, worker or slot index (family-defined)
  std::int64_t key = -1;  ///< trigger iteration, or the fault marker (integrity)

  friend bool operator==(const RunEvent&, const RunEvent&) = default;
};

/// The events of one family a stack executed, in the order it observed
/// them.  An entry always names its action; it names the target or the key
/// only where the stack can observe it, and an unnamed field matches any
/// planned value.  A ledger is a plain value: the stack that fills it from
/// several threads serialises the appends itself.
template <typename Action>
class EventLedger {
 public:
  struct Entry {
    Action action{};
    std::optional<int> target;
    std::optional<std::int64_t> key;
  };

  /// An executed event identified by (action, target).
  void record(Action action, int target) { entries_.push_back({action, target, std::nullopt}); }
  /// An executed event identified by (action, key), on whichever target.
  void record_key(Action action, std::int64_t key) {
    entries_.push_back({action, std::nullopt, key});
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// Entries recorded for `action`.
  [[nodiscard]] std::size_t count(Action action) const {
    std::size_t n = 0;
    for (const Entry& entry : entries_) n += entry.action == action ? 1 : 0;
    return n;
  }

 private:
  std::vector<Entry> entries_;
};

/// Keeps the planned events that executed, in planned order: each planned
/// event consumes the first unconsumed ledger entry that matches it, and is
/// dropped when none is left.  A planned `trailing` event (membership's
/// kShardRebalance) is never recorded on its own: it is kept exactly when
/// the non-trailing event before it in the planned list was.
template <typename Action>
[[nodiscard]] SHMCAFFE_DETERMINISTIC SHMCAFFE_NONBLOCKING std::vector<RunEvent<Action>>
executed_events(const std::vector<RunEvent<Action>>& planned, const EventLedger<Action>& ledger,
                std::optional<std::type_identity_t<Action>> trailing = std::nullopt) {
  const auto& entries = ledger.entries();
  std::vector<char> consumed(entries.size(), 0);
  std::vector<RunEvent<Action>> kept;
  bool previous_kept = false;
  for (const RunEvent<Action>& event : planned) {
    if (trailing.has_value() && event.action == *trailing) {
      if (previous_kept) kept.push_back(event);
      continue;
    }
    previous_kept = false;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& entry = entries[i];
      if (consumed[i] != 0 || entry.action != event.action ||
          entry.target.value_or(event.target) != event.target ||
          entry.key.value_or(event.key) != event.key) {
        continue;
      }
      consumed[i] = 1;
      previous_kept = true;
      kept.push_back(event);
      break;
    }
  }
  return kept;
}

/// Order-sensitive FNV-1a digest over (action, target, key) of every event
/// — identical for a planned list and a faithfully executed one.
template <typename Action>
[[nodiscard]] SHMCAFFE_DETERMINISTIC SHMCAFFE_NONBLOCKING std::uint64_t fingerprint(
    const std::vector<RunEvent<Action>>& events) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const RunEvent<Action>& event : events) {
    const std::uint64_t words[3] = {static_cast<std::uint64_t>(event.action),
                                    static_cast<std::uint64_t>(event.target),
                                    static_cast<std::uint64_t>(event.key)};
    hash = simd::fnv1a_words(words, sizeof(words), hash);
  }
  return hash;
}

/// One line, "<action> target=<t> key=<k>".
template <typename Action>
[[nodiscard]] std::string describe(const RunEvent<Action>& event) {
  char line[96];
  std::snprintf(line, sizeof(line), "%s target=%d key=%lld", to_string(event.action),
                event.target, static_cast<long long>(event.key));
  return line;
}

/// One line per event.
template <typename Action>
[[nodiscard]] std::string describe(const std::vector<RunEvent<Action>>& events) {
  std::string out;
  for (const RunEvent<Action>& event : events) out += describe(event) + "\n";
  return out;
}

/// Empty when `a` and `b` are equal; otherwise names the first index at
/// which they differ and the event each list holds there ("end of list"
/// when one list is a prefix of the other).
template <typename Action>
[[nodiscard]] SHMCAFFE_DETERMINISTIC std::string first_divergence(
    const std::vector<RunEvent<Action>>& a, const std::vector<RunEvent<Action>>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  if (i == a.size() && i == b.size()) return "";
  const auto at = [i](const std::vector<RunEvent<Action>>& list) {
    return i < list.size() ? describe(list[i]) : std::string("end of list");
  };
  return "first divergence at event " + std::to_string(i) + ": " + at(a) + " vs " + at(b);
}

/// The same comparison for a run outcome's optional lists (std::nullopt:
/// the run did not track the family).
template <typename Action>
[[nodiscard]] std::string first_divergence(const std::optional<std::vector<RunEvent<Action>>>& a,
                                           const std::optional<std::vector<RunEvent<Action>>>& b) {
  if (a.has_value() && b.has_value()) return first_divergence(*a, *b);
  if (a.has_value() == b.has_value()) return "";
  return a.has_value() ? "the second run did not track these events"
                       : "the first run did not track these events";
}

}  // namespace shmcaffe::common
