// Feeds the benchmark's output checks deliberately broken results; each
// must be rejected, and the unbroken ones accepted.  Exits non-zero if any
// expectation does not hold.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "checks.h"
#include "common/units.h"

namespace {

using shmcaffe::cluster::PlatformTiming;
using shmcaffe::core::TrainResult;
using shmcaffe::core::WorkerOutcome;

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

constexpr int kWorkers = 4;
constexpr std::int64_t kTarget = 32;

TrainResult good_train() {
  TrainResult result;
  result.iterations_per_worker.assign(kWorkers, kTarget);
  result.worker_stats.resize(kWorkers);
  result.worker_outcomes.assign(kWorkers, WorkerOutcome::kFinished);
  result.curve = {{1, 0.9, 0.6}, {2, 0.5, 0.8}};
  result.final_loss = 0.5;
  result.final_accuracy = 0.8;
  return result;
}

perfbench::Expectations repeating() {
  perfbench::Expectations e;
  e.min_accuracy = 0.2;
  e.loss_repeats = true;
  e.loss_lo = 0.1;
  e.loss_hi = 1.0;
  return e;
}

/// `reference` is the first call's loss at the target iteration count.
bool rejected(const TrainResult& result, std::optional<double> reference = std::nullopt) {
  perfbench::LossReferences references;
  if (reference) references[kWorkers * kTarget] = *reference;
  return !perfbench::check_train(result, kWorkers, kTarget, repeating(), references).empty();
}

PlatformTiming good_sim() {
  PlatformTiming timing;
  timing.iterations = 400;
  timing.completed_worker_iterations = 96 * 400;
  timing.makespan = 267'921'257'759;
  return timing;
}

perfbench::Expectations sim_band() {
  perfbench::Expectations e;
  e.makespan_lo = 200.0;
  e.makespan_hi = 340.0;
  return e;
}

bool sim_rejected(const PlatformTiming& timing) {
  return !perfbench::check_sim(timing, 96, 400, sim_band(), good_sim().makespan).empty();
}

}  // namespace

int main() {
  const TrainResult good = good_train();
  expect(!rejected(good, good.final_loss), "a correct functional result is accepted");

  TrainResult nan_loss = good;
  nan_loss.final_loss = std::nan("");
  expect(rejected(nan_loss), "NaN final loss is rejected");

  TrainResult nan_curve = good;
  nan_curve.curve[0].test_loss = std::numeric_limits<double>::infinity();
  expect(rejected(nan_curve), "non-finite curve loss is rejected");

  TrainResult missing = good;
  missing.worker_outcomes.pop_back();
  missing.iterations_per_worker.pop_back();
  expect(rejected(missing), "a missing worker is rejected");

  TrainResult crashed = good;
  crashed.worker_outcomes[2] = WorkerOutcome::kCrashed;
  crashed.dead_workers = {2};
  expect(rejected(crashed), "a crashed worker is rejected");

  TrainResult dead_only = good;
  dead_only.dead_workers = {1};
  expect(rejected(dead_only), "a non-empty dead_workers list is rejected");

  TrainResult short_by_one = good;
  short_by_one.iterations_per_worker[3] -= 1;
  expect(rejected(short_by_one), "an iteration total one short is rejected");

  TrainResult over = good;
  for (std::int64_t& count : over.iterations_per_worker) count += 1;
  over.final_loss = 0.6;
  expect(!rejected(over, good.final_loss),
         "a lockstep call one iteration past the target is accepted with its own loss");

  TrainResult over_drifted = over;
  over_drifted.final_loss = std::nextafter(over.final_loss, 1.0);
  perfbench::LossReferences over_reference{{perfbench::summed_iterations(over), over.final_loss}};
  expect(!perfbench::check_train(over_drifted, kWorkers, kTarget, repeating(), over_reference)
              .empty(),
         "a final loss one ulp off the first call's of the same iterations is rejected");

  TrainResult out_of_step = good;
  out_of_step.iterations_per_worker[3] += 1;
  expect(rejected(out_of_step), "lockstep workers at different iteration counts are rejected");

  TrainResult low_accuracy = good;
  low_accuracy.final_accuracy = 0.19;
  expect(rejected(low_accuracy), "accuracy under the floor is rejected");

  TrainResult drifted = good;
  drifted.final_loss = std::nextafter(good.final_loss, 1.0);
  expect(rejected(drifted, good.final_loss),
         "a final loss one ulp off the first call's is rejected");

  TrainResult out_of_band = good;
  out_of_band.final_loss = 1.5;
  expect(rejected(out_of_band), "a final loss outside the cross-seed band is rejected");

  const PlatformTiming sim = good_sim();
  expect(!sim_rejected(sim), "a correct simulated result is accepted");

  PlatformTiming ulp = sim;
  ulp.makespan += 1;  // one nanosecond: the unit in the last place of SimTime
  expect(sim_rejected(ulp), "a makespan perturbed by one ulp is rejected");

  PlatformTiming short_sim = sim;
  short_sim.completed_worker_iterations -= 1;
  expect(sim_rejected(short_sim), "completed worker-iterations one short is rejected");

  PlatformTiming crashed_sim = sim;
  crashed_sim.crashed_workers = 1;
  expect(sim_rejected(crashed_sim), "a crashed simulated worker is rejected");

  PlatformTiming slow = sim;
  slow.makespan = 400 * shmcaffe::units::kSecond;
  expect(!perfbench::check_sim(slow, 96, 400, sim_band(), std::nullopt).empty(),
         "a makespan outside the cross-seed band is rejected");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
