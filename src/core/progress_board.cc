#include "core/progress_board.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace shmcaffe::core {

namespace {
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ProgressBoard::ProgressBoard(smb::SmbService& server, smb::ShmKey key, int workers,
                             bool create, int capacity)
    : server_(&server), capacity_(std::max(workers, capacity)) {
  if (create) {
    const auto slots = static_cast<std::size_t>(capacity_) * 6 + 1;
    handle_ = server.create_counters(key, slots);
    for (int w = 0; w < capacity_; ++w) {
      server_->store(handle_, incarnation_slot(w), kFirstIncarnation);
      if (w >= workers) {
        server_->store(handle_, state_slot(w),
                       static_cast<std::int64_t>(WorkerState::kAbsent));
      }
    }
  } else {
    // Attachers cannot know the creator's join capacity up front, so attach
    // size-agnostically and derive it from the segment that exists.
    handle_ = server.attach_counters(key, 0);
    capacity_ = static_cast<int>((server.size(handle_) - 1) / 6);
  }
}

void ProgressBoard::report(int worker, std::int64_t iterations, std::int64_t incarnation) {
  if (!incarnation_is_current(worker, incarnation)) return;  // stale life
  const std::int64_t previous = server_->load(handle_, static_cast<std::size_t>(worker));
  const std::int64_t last_stamp = server_->load(handle_, heartbeat_slot(worker));
  const std::int64_t now = steady_now_ns();
  server_->store(handle_, static_cast<std::size_t>(worker), iterations);
  server_->store(handle_, heartbeat_slot(worker), now);
  // Fold the implied instantaneous rate into the worker's EWMA slot.  The
  // first report of a life (stamp 0) and duplicate/backward reports carry
  // no rate information and leave the estimate alone.
  const double dt = static_cast<double>(now - last_stamp) / 1e9;
  if (last_stamp != 0 && iterations > previous && dt > 0.0) {
    const double instantaneous = static_cast<double>(iterations - previous) / dt;
    const double smoothed = elastic::ewma(rate_of(worker), instantaneous, kRateEwmaAlpha);
    server_->store(handle_, rate_slot(worker),
                   static_cast<std::int64_t>(smoothed * kRateFixedPoint));
  }
}

void ProgressBoard::heartbeat(int worker, std::int64_t incarnation) {
  if (!incarnation_is_current(worker, incarnation)) return;  // stale life
  server_->store(handle_, heartbeat_slot(worker), steady_now_ns());
}

std::int64_t ProgressBoard::iterations_of(int worker) const {
  return server_->load(handle_, static_cast<std::size_t>(worker));
}

std::int64_t ProgressBoard::min_iterations() const {
  std::int64_t result = std::numeric_limits<std::int64_t>::max();
  for (int w = 0; w < capacity_; ++w) {
    if (!contributing(w)) continue;
    result = std::min(result, iterations_of(w));
  }
  return result == std::numeric_limits<std::int64_t>::max() ? 0 : result;
}

std::int64_t ProgressBoard::max_iterations() const {
  std::int64_t result = std::numeric_limits<std::int64_t>::min();
  for (int w = 0; w < capacity_; ++w) {
    if (!contributing(w)) continue;
    result = std::max(result, iterations_of(w));
  }
  return result == std::numeric_limits<std::int64_t>::min() ? 0 : result;
}

double ProgressBoard::mean_iterations() const {
  std::int64_t sum = 0;
  int live = 0;
  for (int w = 0; w < capacity_; ++w) {
    if (!contributing(w)) continue;
    sum += iterations_of(w);
    ++live;
  }
  return live > 0 ? static_cast<double>(sum) / live : 0.0;
}

void ProgressBoard::mark_finished(int worker) {
  server_->store(handle_, state_slot(worker),
                 static_cast<std::int64_t>(WorkerState::kFinished));
}

void ProgressBoard::mark_dead(int worker) {
  server_->store(handle_, state_slot(worker), static_cast<std::int64_t>(WorkerState::kDead));
}

void ProgressBoard::mark_drained(int worker) {
  server_->store(handle_, state_slot(worker),
                 static_cast<std::int64_t>(WorkerState::kDrained));
}

void ProgressBoard::mark_evicted(int worker) {
  server_->store(handle_, state_slot(worker),
                 static_cast<std::int64_t>(WorkerState::kEvicted));
  // Like a death, the evicted life's progress must stop contributing and
  // its last heartbeat must not look fresh to a later sweep.
  server_->store(handle_, static_cast<std::size_t>(worker), 0);
  server_->store(handle_, heartbeat_slot(worker), 0);
}

ProgressBoard::WorkerState ProgressBoard::state_of(int worker) const {
  return static_cast<WorkerState>(server_->load(handle_, state_slot(worker)));
}

int ProgressBoard::live_count() const {
  int live = 0;
  for (int w = 0; w < capacity_; ++w) {
    if (contributing(w)) ++live;
  }
  return live;
}

bool ProgressBoard::any_quarantined() const {
  for (int w = 0; w < capacity_; ++w) {
    if (state_of(w) == WorkerState::kQuarantined) return true;
  }
  return false;
}

std::vector<int> ProgressBoard::dead_workers() const {
  std::vector<int> dead;
  for (int w = 0; w < capacity_; ++w) {
    if (is_dead(w)) dead.push_back(w);
  }
  return dead;
}

int ProgressBoard::sweep_dead(double timeout_seconds) {
  // One sweeper at a time; a peer already scanning covers this caller too.
  std::unique_lock sweep(sweep_mutex_, std::try_to_lock);
  if (!sweep.owns_lock()) return 0;
  return sweep_dead_locked(timeout_seconds);
}

int ProgressBoard::sweep_dead_locked(double timeout_seconds)
    SHMCAFFE_REQUIRES(sweep_mutex_) {
  SHMCAFFE_ASSERT_HELD(sweep_mutex_);
  const auto timeout_ns = static_cast<std::int64_t>(timeout_seconds * 1e9);
  const std::int64_t now = steady_now_ns();
  int newly_dead = 0;
  for (int w = 0; w < capacity_; ++w) {
    // Quarantined workers still heartbeat (they keep training toward
    // readmission), so they are swept for death like alive ones.
    const WorkerState state = state_of(w);
    if (state != WorkerState::kAlive && state != WorkerState::kQuarantined) continue;
    const std::int64_t stamp = server_->load(handle_, heartbeat_slot(w));
    // stamp == 0 means the worker never reported; give it startup grace.
    if (stamp != 0 && now - stamp > timeout_ns) {
      mark_dead(w);
      // Zero the fenced life's slots under the sweep lock: a worker fenced
      // after its last exchange must not keep contributing a stale
      // iteration count once the slot is re-admitted (kAverageIterations
      // would otherwise average in progress nobody is making), and its
      // last heartbeat must not look fresh to a later sweep.
      server_->store(handle_, static_cast<std::size_t>(w), 0);
      server_->store(handle_, heartbeat_slot(w), 0);
      ++newly_dead;
    }
  }
  return newly_dead;
}

std::int64_t ProgressBoard::incarnation_of(int worker) const {
  return server_->load(handle_, incarnation_slot(worker));
}

std::int64_t ProgressBoard::fresh_life(int worker) {
  // Bump the incarnation FIRST: from this moment the previous life's
  // reports and heartbeats are stale and dropped, so the reset below
  // cannot be clobbered by a zombie thread.
  const std::int64_t incarnation =
      server_->fetch_add(handle_, incarnation_slot(worker), 1) + 1;
  server_->store(handle_, static_cast<std::size_t>(worker), 0);
  server_->store(handle_, heartbeat_slot(worker), 0);  // startup grace
  server_->store(handle_, rate_slot(worker), 0);
  server_->store(handle_, violation_slot(worker), 0);
  server_->store(handle_, state_slot(worker),
                 static_cast<std::int64_t>(WorkerState::kAlive));
  return incarnation;
}

std::int64_t ProgressBoard::readmit(int worker) { return fresh_life(worker); }

std::int64_t ProgressBoard::admit(int worker) { return fresh_life(worker); }

int ProgressBoard::acting_master() const {
  for (int w = 0; w < capacity_; ++w) {
    if (contributing(w)) return w;
  }
  return 0;
}

double ProgressBoard::rate_of(int worker) const {
  return static_cast<double>(server_->load(handle_, rate_slot(worker))) / kRateFixedPoint;
}

double ProgressBoard::mean_live_rate() const {
  double alive_sum = 0.0, fallback_sum = 0.0;
  int alive_n = 0, fallback_n = 0;
  for (int w = 0; w < capacity_; ++w) {
    const double rate = rate_of(w);
    if (rate <= 0.0) continue;
    switch (state_of(w)) {
      case WorkerState::kAlive:
        alive_sum += rate;
        ++alive_n;
        break;
      case WorkerState::kQuarantined:
      case WorkerState::kFinished:
        fallback_sum += rate;
        ++fallback_n;
        break;
      default:
        break;
    }
  }
  if (alive_n > 0) return alive_sum / alive_n;
  // All estimating workers are quarantined or done: fall back to their
  // rates so the detector can still judge readmission (a cohort-wide
  // quarantine must not freeze because nobody "alive" has an estimate).
  return fallback_n > 0 ? fallback_sum / fallback_n : 0.0;
}

std::vector<elastic::StragglerTransition> ProgressBoard::sweep_stragglers(
    const elastic::MembershipPolicy& policy) {
  std::unique_lock sweep(sweep_mutex_, std::try_to_lock);
  if (!sweep.owns_lock()) return {};
  return sweep_stragglers_locked(policy);
}

std::vector<elastic::StragglerTransition> ProgressBoard::sweep_stragglers_locked(
    const elastic::MembershipPolicy& policy) SHMCAFFE_REQUIRES(sweep_mutex_) {
  SHMCAFFE_ASSERT_HELD(sweep_mutex_);
  std::vector<elastic::StragglerTransition> transitions;
  const double mean_rate = mean_live_rate();
  if (mean_rate <= 0.0) return transitions;  // no estimate to project with yet
  const std::int64_t now = steady_now_ns();
  for (int w = 0; w < capacity_; ++w) {
    const WorkerState state = state_of(w);
    if (state != WorkerState::kAlive && state != WorkerState::kQuarantined) continue;
    const std::int64_t stamp = server_->load(handle_, heartbeat_slot(w));
    if (stamp == 0) continue;  // startup grace, like sweep_dead
    const double silence = static_cast<double>(now - stamp) / 1e9;
    if (state == WorkerState::kAlive) {
      const auto violations = static_cast<int>(server_->load(handle_, violation_slot(w)));
      switch (elastic::judge_alive(silence, mean_rate, violations, policy)) {
        case elastic::StragglerVerdict::kQuarantine:
          server_->store(handle_, violation_slot(w), violations + 1);
          server_->store(handle_, state_slot(w),
                         static_cast<std::int64_t>(WorkerState::kQuarantined));
          transitions.push_back({w, elastic::StragglerVerdict::kQuarantine});
          break;
        case elastic::StragglerVerdict::kEvict:
          server_->store(handle_, violation_slot(w), violations + 1);
          mark_evicted(w);
          transitions.push_back({w, elastic::StragglerVerdict::kEvict});
          break;
        default:
          break;
      }
    } else if (elastic::judge_quarantined(silence, mean_rate, policy) ==
               elastic::StragglerVerdict::kReadmit) {
      server_->store(handle_, state_slot(w),
                     static_cast<std::int64_t>(WorkerState::kAlive));
      transitions.push_back({w, elastic::StragglerVerdict::kReadmit});
    }
  }
  return transitions;
}

void ProgressBoard::raise_stop() {
  server_->store(handle_, stop_slot(), 1);
}

bool ProgressBoard::stop_raised() const {
  return server_->load(handle_, stop_slot()) != 0;
}

bool ProgressBoard::should_stop(TerminationCriterion criterion, int worker,
                                std::int64_t my_iterations,
                                std::int64_t target_iterations,
                                double heartbeat_timeout_seconds,
                                std::int64_t incarnation) {
  // A stale incarnation is fenced outright: the slot now belongs to a
  // re-admitted successor, so this life must exit without contributing.
  if (!incarnation_is_current(worker, incarnation)) return true;
  report(worker, my_iterations, incarnation);
  if (stop_raised()) return true;
  // Fenced: a worker the survivors declared dead or the straggler sweep
  // evicted must not keep contributing (its exchanges would re-include a
  // peer everyone else already excluded).
  const WorkerState state = state_of(worker);
  if (state == WorkerState::kDead || state == WorkerState::kEvicted) return true;
  if (heartbeat_timeout_seconds > 0.0) sweep_dead(heartbeat_timeout_seconds);
  // A quarantined worker neither stops nor decides for the cohort: it keeps
  // training toward readmission until the global flag is raised (the caller
  // handles "quarantined but reached its own target" itself).
  if (state == WorkerState::kQuarantined) return false;
  // Held stop: the cohort does not decide while a quarantined slot's fate is
  // open.  Readmission or the heartbeat fence (swept above) resolves it.
  // Only sweep_stragglers() quarantines, so without straggler detection
  // no slot is ever quarantined and the stop is never held.
  if (any_quarantined()) return false;
  switch (criterion) {
    case TerminationCriterion::kMasterFinishes:
      // Degradation: if the master died, the lowest-indexed survivor
      // inherits the role, so the criterion still fires.
      if (worker == acting_master() && my_iterations >= target_iterations) {
        raise_stop();
        return true;
      }
      return false;
    case TerminationCriterion::kFirstFinisher:
      if (my_iterations >= target_iterations) {
        raise_stop();
        return true;
      }
      return false;
    case TerminationCriterion::kAverageIterations:
      // Dead workers are excluded from the mean: the run converges on the
      // survivors' progress instead of chasing a frozen numerator.
      if (mean_iterations() >= static_cast<double>(target_iterations)) {
        raise_stop();
        return true;
      }
      return false;
  }
  return false;
}

void ProgressBoard::release() {
  if (server_ != nullptr && handle_.valid()) {
    server_->release(handle_);
    handle_ = smb::Handle{};
  }
}

}  // namespace shmcaffe::core
