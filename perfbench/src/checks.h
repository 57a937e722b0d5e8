// Output checks of the benchmark: every workload call is attempted once and
// fails if any check below reports a problem.  Pure functions of a call's
// result, so tests/checks_test.cc can feed them broken results.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/platform_result.h"
#include "core/config.h"
#include "workloads.h"

namespace perfbench {

/// Final loss of the first call of a run, by the call's summed iterations.
/// ShmCaffe-H's termination vote can end a call one iteration past the
/// target (README.md), and that iteration changes the loss; calls that ran
/// the same iterations must agree bitwise.
using LossReferences = std::map<std::int64_t, double>;

/// Summed iterations of all workers in `result`.
[[nodiscard]] std::int64_t summed_iterations(const shmcaffe::core::TrainResult& result);

/// Problems found in one functional call; empty means correct.
///   * a worker outcome other than kFinished, an outcome or iteration entry
///     missing, or a non-empty dead_workers list;
///   * summed iterations short of workers x target_iterations;
///   * a non-finite final or curve loss;
///   * final accuracy under expect.min_accuracy;
///   * when expect.loss_repeats: workers that ran different iteration
///     counts (the workload runs in lockstep), a final loss outside the
///     cross-seed band, or one not bitwise equal to the reference for the
///     same summed iterations.
[[nodiscard]] std::vector<std::string> check_train(
    const shmcaffe::core::TrainResult& result, int workers, std::int64_t target_iterations,
    const Expectations& expect, const LossReferences& references);

/// Problems found in one simulated call: completed worker-iterations not
/// exactly workers x iterations, a crashed worker, a makespan outside the
/// band or (given a reference) not equal to the first call's to the
/// nanosecond (the model's own time unit).
[[nodiscard]] std::vector<std::string> check_sim(
    const shmcaffe::cluster::PlatformTiming& timing, int workers, std::int64_t iterations,
    const Expectations& expect, std::optional<shmcaffe::SimTime> reference_makespan);

}  // namespace perfbench
