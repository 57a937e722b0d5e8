#include "workloads.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

using shmcaffe::core::DistTrainOptions;

/// splitmix64 finaliser: decorrelates the per-input seeds drawn from one
/// run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The quickstart task: 8 pattern classes on `channels`x`side`x`side`
/// images, 2048 training and 512 held-out test samples.
DistTrainOptions synthetic_task(const std::string& model, int channels, int side,
                                std::uint64_t seed) {
  DistTrainOptions options;
  options.model_family = model;
  options.input = shmcaffe::dl::ModelInputSpec{channels, side, side, 8};
  options.train_data.channels = channels;
  options.train_data.height = side;
  options.train_data.width = side;
  options.train_data.classes = 8;
  options.train_data.size = 2048;
  options.train_data.noise_stddev = 0.3;
  options.test_data = options.train_data;
  options.test_data.size = 512;
  // The quickstart's 0.05 collapses 4-worker SEASGD on some seeds, and a
  // single worker at 0.05 fell from 0.98 to 0.18 accuracy in one epoch
  // (README.md).
  options.solver.base_lr = 0.02;
  options.seed = derive(seed, 1);
  options.train_data.seed = derive(seed, 2);
  options.test_data.seed = derive(seed, 3);
  return options;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "a4_inception" || name == "h4_inception" || name == "sim_a96") {
    w.train = synthetic_task("mini_inception", 1, 12, seed);
    w.train.workers = 4;
    w.train.batch_size = 16;
    // The learning rate steps down x0.1 after epoch 4.  Every training
    // workload ends two epochs after that step: before it, test accuracy
    // swings from epoch to epoch, and shorter calls ended under their
    // floors on seeds outside the sweep (README.md).
    w.train.epochs = 6;
    w.expect.min_accuracy = 0.15;  // 150 seeds: 0.375-0.94
    if (name == "h4_inception") {
      w.train.group_size = 4;
      // 120 seeds: 0.39-1.0, loss 0.016-1.66.  The low end is a seed that
      // diverged in epoch 4 (0.93 -> 0.40); the floor stays above chance.
      w.expect.min_accuracy = 0.2;
      w.expect.loss_repeats = true;
      w.expect.loss_lo = 0.001;
      w.expect.loss_hi = 4.0;
    }
    if (name == "sim_a96") {
      w.simulated = true;
      w.train.smb_servers = 4;
      w.sim.workers = 96;
      w.sim.group_size = 1;
      w.sim.smb_servers = 4;
      w.sim.iterations = 50;
      w.sim.seed = derive(seed, 4);
      // bench_ext_elastic's planted-straggler profile.  Its own seed stays
      // fixed so every run seed models the same set of slow machines.
      w.sim.heterogeneity.slow_fraction = 0.2;
      w.sim.heterogeneity.compute_multiplier = 2.5;
      w.sim.heterogeneity.nic_multiplier = 2.0;
      w.expect.makespan_lo = 28.0;  // 70 seeds: 33.0-38.9 s
      w.expect.makespan_hi = 46.0;
    }
  } else if (name == "a4_mlp_wide") {
    w.train = synthetic_task("mlp", 3, 32, seed);
    w.train.workers = 4;
    w.train.batch_size = 16;
    w.train.epochs = 6;
    w.expect.min_accuracy = 0.5;  // 51 seeds: 0.988-1.0
    w.replay_iterations = 60;
  } else if (name == "solo_inception32") {
    w.train = synthetic_task("mini_inception", 3, 32, seed);
    w.train.workers = 1;
    w.train.batch_size = 32;
    // Six epochs of 512 samples: 96 iterations, the last 32 after the
    // learning-rate step (see above).
    w.train.epochs = 6;
    w.train.train_data.size = 512;
    w.train.test_data.size = 256;
    // 100 seeds: 0.66-1.0, loss 0.0076-1.16; a seed diverged in epoch 4
    // here too (0.98 -> 0.73), so the floor is h4_inception's.
    w.expect.min_accuracy = 0.2;
    w.expect.loss_repeats = true;
    w.expect.loss_lo = 0.001;
    w.expect.loss_hi = 4.0;
    w.replay_iterations = 10;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::int64_t target_iterations(const DistTrainOptions& options) {
  const std::int64_t per_epoch_total = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(options.train_data.size) / options.batch_size);
  return std::max<std::int64_t>(1, per_epoch_total / options.workers) * options.epochs;
}

DistTrainOptions setup_options(const DistTrainOptions& options) {
  DistTrainOptions small = options;
  small.epochs = 1;
  small.train_data.size =
      2 * static_cast<std::size_t>(options.workers) * static_cast<std::size_t>(options.batch_size);
  small.test_data.size = 64;
  return small;
}

}  // namespace perfbench
