#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/units.h"

namespace perfbench {

namespace {

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buffer[200];
  std::snprintf(buffer, sizeof buffer, fmt, args...);
  return buffer;
}

bool bitwise_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

std::int64_t summed_iterations(const shmcaffe::core::TrainResult& result) {
  return std::accumulate(result.iterations_per_worker.begin(),
                         result.iterations_per_worker.end(), std::int64_t{0});
}

std::vector<std::string> check_train(const shmcaffe::core::TrainResult& result, int workers,
                                     std::int64_t target_iterations, const Expectations& expect,
                                     const LossReferences& references) {
  using shmcaffe::core::WorkerOutcome;
  std::vector<std::string> problems;
  const auto expected = static_cast<std::size_t>(workers);
  if (result.worker_outcomes.size() != expected ||
      result.iterations_per_worker.size() != expected) {
    problems.push_back(format("%zu worker outcomes and %zu iteration counts for %d workers",
                              result.worker_outcomes.size(),
                              result.iterations_per_worker.size(), workers));
  }
  for (std::size_t w = 0; w < result.worker_outcomes.size(); ++w) {
    if (result.worker_outcomes[w] != WorkerOutcome::kFinished) {
      problems.push_back(format("worker %zu did not finish (outcome %d)", w,
                                static_cast<int>(result.worker_outcomes[w])));
    }
  }
  if (!result.dead_workers.empty()) {
    problems.push_back(format("%zu dead workers", result.dead_workers.size()));
  }
  const std::int64_t iterations = summed_iterations(result);
  if (iterations < target_iterations * workers) {
    problems.push_back(format("summed iterations %lld short of %lld",
                              static_cast<long long>(iterations),
                              static_cast<long long>(target_iterations * workers)));
  }
  if (!std::isfinite(result.final_loss)) problems.emplace_back("final loss is not finite");
  for (const shmcaffe::core::EpochMetrics& point : result.curve) {
    if (!std::isfinite(point.test_loss)) {
      problems.push_back(format("epoch %d loss is not finite", point.epoch));
    }
  }
  if (!(result.final_accuracy >= expect.min_accuracy)) {
    problems.push_back(format("final accuracy %.4f under the floor %.4f",
                              result.final_accuracy, expect.min_accuracy));
  }
  if (expect.loss_repeats) {
    for (std::int64_t count : result.iterations_per_worker) {
      if (count != result.iterations_per_worker.front()) {
        problems.push_back(format("workers ran %lld and %lld iterations in lockstep",
                                  static_cast<long long>(result.iterations_per_worker.front()),
                                  static_cast<long long>(count)));
        break;
      }
    }
    if (!(result.final_loss >= expect.loss_lo && result.final_loss <= expect.loss_hi)) {
      problems.push_back(format("final loss %.9g outside the cross-seed band [%g, %g]",
                                result.final_loss, expect.loss_lo, expect.loss_hi));
    }
    const auto reference = references.find(iterations);
    if (reference != references.end() && !bitwise_equal(result.final_loss, reference->second)) {
      problems.push_back(format("final loss %.17g differs from %.17g of the first call of %lld "
                                "iterations",
                                result.final_loss, reference->second,
                                static_cast<long long>(iterations)));
    }
  }
  return problems;
}

std::vector<std::string> check_sim(const shmcaffe::cluster::PlatformTiming& timing, int workers,
                                   std::int64_t iterations, const Expectations& expect,
                                   std::optional<shmcaffe::SimTime> reference_makespan) {
  std::vector<std::string> problems;
  if (timing.completed_worker_iterations != iterations * workers) {
    problems.push_back(format("completed worker-iterations %lld, expected %lld",
                              static_cast<long long>(timing.completed_worker_iterations),
                              static_cast<long long>(iterations * workers)));
  }
  if (timing.crashed_workers != 0) {
    problems.push_back(format("%d crashed workers", timing.crashed_workers));
  }
  const double makespan = shmcaffe::units::to_seconds(timing.makespan);
  if (!(makespan >= expect.makespan_lo && makespan <= expect.makespan_hi)) {
    problems.push_back(format("makespan %.9f s outside the cross-seed band [%g, %g]", makespan,
                              expect.makespan_lo, expect.makespan_hi));
  }
  if (reference_makespan.has_value() && timing.makespan != *reference_makespan) {
    problems.push_back(format("makespan %lld ns differs from the first call's %lld ns",
                              static_cast<long long>(timing.makespan),
                              static_cast<long long>(*reference_makespan)));
  }
  return problems;
}

}  // namespace perfbench
