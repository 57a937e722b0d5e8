// The benchmark's workloads: which configuration each one runs, how its
// inputs derive from the run seed, and what its outputs must satisfy.
// README.md gives the reasons for each choice.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.h"
#include "core/sim_shmcaffe.h"

namespace perfbench {

/// What a correct call of a workload returns.  The accuracy floor and the
/// bands come from a seed sweep (README.md); each sits well outside it.
struct Expectations {
  double min_accuracy = 0.0;
  /// Final loss bitwise identical across calls with one seed (the workload
  /// is deterministic), and inside [loss_lo, loss_hi] for every seed.
  bool loss_repeats = false;
  double loss_lo = 0.0;
  double loss_hi = 0.0;
  /// Simulated workloads: modelled makespan inside this band (seconds).
  double makespan_lo = 0.0;
  double makespan_hi = 0.0;
};

struct Workload {
  std::string name;
  bool simulated = false;
  /// The functional run.  For a simulated workload this is its functional
  /// twin (same mode and SMB server count at 4 workers), which the traced
  /// replay measures layer by layer.
  shmcaffe::core::DistTrainOptions train;
  /// The simulated run (simulated workloads only).
  shmcaffe::core::SimShmCaffeOptions sim;
  Expectations expect;
  /// Iterations per worker of the traced replay (about a second of work).
  int replay_iterations = 30;
};

/// The workload `name` with every input seed derived from `seed`.  Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// Iterations every worker must reach in a call of `options` (the trainer's
/// own target: whole per-worker batches per epoch times epochs).
[[nodiscard]] std::int64_t target_iterations(const shmcaffe::core::DistTrainOptions& options);

/// The smallest call of the same configuration: two iterations per worker
/// and a small test split.  Timing it measures what a call costs before
/// training starts (servers, segments, models, threads, first touches).
[[nodiscard]] shmcaffe::core::DistTrainOptions setup_options(
    const shmcaffe::core::DistTrainOptions& options);

}  // namespace perfbench
