#include "layers.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "coll/nccl.h"
#include "common/arena.h"
#include "common/parallel.h"
#include "core/evaluate.h"
#include "core/seasgd_math.h"
#include "core/sharded_buffer.h"
#include "data/loader.h"
#include "data/synth_dataset.h"
#include "dl/models.h"
#include "dl/param_vector.h"
#include "dl/solver.h"
#include "net/fabric.h"
#include "sim/simulation.h"
#include "smb/server.h"
#include "workloads.h"

namespace perfbench {

namespace sc = shmcaffe;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs fn(i) on `count` threads and rethrows the first exception after
/// joining all of them.
template <typename Fn>
void run_threads(int count, Fn fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < count; ++i) {
      threads.emplace_back([&fn, &errors, i] {
        try {
          fn(i);
        } catch (...) {
          errors[static_cast<std::size_t>(i)] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// Lane layout: one lane per worker (at least 4, for the group-of-4
/// collective probe), one per worker's Fig. 6 update thread, one probe lane.
struct Lanes {
  std::size_t workers;
  std::size_t worker_lanes;
  [[nodiscard]] std::size_t main(int worker) const { return static_cast<std::size_t>(worker); }
  [[nodiscard]] std::size_t update(int worker) const {
    return worker_lanes + static_cast<std::size_t>(worker);
  }
  [[nodiscard]] std::size_t probe() const { return worker_lanes + workers; }
};

Lanes lanes_of(const sc::core::DistTrainOptions& options) {
  const auto workers = static_cast<std::size_t>(options.workers);
  return Lanes{workers, std::max<std::size_t>(workers, 4)};
}

/// The Fig. 6 update thread of one group root: flushes the weight increment
/// (T.A1 write, T.A2-T.A4 server-side accumulate) while the main thread
/// computes.  The main thread hands off under `mutex` and waits for the
/// previous flush before its next exchange.  Stops and joins on
/// destruction, after flushing a pending increment.
class UpdateThread {
 public:
  UpdateThread(Tracer& tracer, std::size_t lane, sc::core::ShardedBuffer& delta_buffer,
               sc::core::ShardedBuffer& global, std::span<const float> delta)
      : thread_([this, &tracer, lane, &delta_buffer, &global, delta] {
          std::unique_lock lock(mutex_);
          for (;;) {
            cv_.wait(lock, [&] { return pending_ || stopping_; });
            if (!pending_) return;
            try {
              {
                auto span = tracer.span(lane, "smb.write", iteration_);
                delta_buffer.write(delta);
              }
              auto span = tracer.span(lane, "smb.accumulate", iteration_);
              delta_buffer.accumulate_into(global);
            } catch (...) {
              error_ = std::current_exception();
            }
            pending_ = false;
            cv_.notify_all();
          }
        }) {}
  UpdateThread(const UpdateThread&) = delete;
  UpdateThread& operator=(const UpdateThread&) = delete;
  ~UpdateThread() {
    {
      std::scoped_lock lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until no increment is pending; returns the held lock (the
  /// T1/T2 window is exclusive with a flush).  Rethrows a failed flush.
  std::unique_lock<std::mutex> wait_idle() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return !pending_; });
    if (error_) std::rethrow_exception(error_);
    return lock;
  }

  /// T3: hands the increment computed under `lock` to the update thread.
  void hand_off(std::unique_lock<std::mutex> lock, std::uint64_t iteration) {
    pending_ = true;
    iteration_ = iteration;
    lock.unlock();
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool pending_ = false;
  bool stopping_ = false;
  std::uint64_t iteration_ = 0;
  std::exception_ptr error_;
  std::jthread thread_;  // last: joins before the members it uses go away
};

struct Shared {
  const sc::core::DistTrainOptions* options;
  const sc::data::SynthImageDataset* train_set;
  std::vector<sc::smb::SmbServer*> servers;
  std::vector<float> initial_weights;
  std::vector<std::unique_ptr<sc::coll::DeviceGroup>> groups;
  sc::smb::ShmKey key = 0;
};

/// One worker of the replay: the trainer's per-iteration calls, each inside
/// a span, for `iterations` iterations.
void replay_worker(const Shared& shared, int worker, int iterations, Tracer& tracer,
                   const Lanes& lanes) {
  const sc::core::DistTrainOptions& options = *shared.options;
  const int group_size = options.group_size;
  const bool hybrid = group_size > 1;
  const bool root = worker % group_size == 0;
  const std::size_t lane = lanes.main(worker);
  const std::size_t param_count = shared.initial_weights.size();

  sc::dl::Net net = sc::dl::make_model(options.model_family, options.input);
  sc::dl::copy_params_from(net, shared.initial_weights);  // Fig. 2: adopt W_g
  sc::dl::SolverOptions solver_options = options.solver;
  solver_options.step_size =
      static_cast<int>(std::max<std::int64_t>(1, target_iterations(options) / options.epochs) * 4);
  sc::dl::SgdSolver solver(net, solver_options);
  sc::data::Prefetcher prefetcher(
      sc::data::ShardedLoader(*shared.train_set, worker, options.workers, options.batch_size,
                              options.seed ^ 0xda7aULL),
      options.prefetch_depth);
  sc::coll::Communicator comm;
  if (hybrid) {
    comm = shared.groups[static_cast<std::size_t>(worker / group_size)]->communicator(
        worker % group_size);
  }

  std::vector<float> local(param_count);
  std::vector<float> staged(options.zero_copy_reads ? 0 : param_count);
  std::vector<float> delta(param_count, 0.0F);
  std::vector<float> grads(param_count);
  sc::core::ShardedBuffer global = sc::core::ShardedBuffer::attach(shared.servers, shared.key,
                                                                   param_count);
  sc::core::ShardedBuffer delta_buffer;
  std::unique_ptr<UpdateThread> updater;
  if (root) {
    delta_buffer = sc::core::ShardedBuffer::create(
        shared.servers, shared.key + 1 + static_cast<sc::smb::ShmKey>(worker), param_count);
    updater = std::make_unique<UpdateThread>(tracer, lanes.update(worker), delta_buffer, global,
                                             delta);
  }
  const auto alpha = static_cast<float>(options.moving_rate);

  // T1/T2 of Fig. 6: read W_g, apply eqs. (5)+(6), hand dW to the updater.
  auto exchange = [&](std::uint64_t id) {
    auto span = tracer.span(lane, "core.exchange", id);
    std::unique_lock<std::mutex> lock;
    {
      auto wait = tracer.span(lane, "core.exchange_wait", id);
      lock = updater->wait_idle();
    }
    sc::dl::copy_params_to(net, local);
    if (options.zero_copy_reads) {
      std::vector<sc::core::ShardedBuffer::PinnedShard> shards;
      {
        auto read = tracer.span(lane, "smb.read_pinned", id);
        shards = global.read_pinned();
      }
      auto math = tracer.span(lane, "core.elastic_exchange", id);
      for (const sc::core::ShardedBuffer::PinnedShard& shard : shards) {
        const std::size_t n = shard.view.size();
        sc::core::elastic_exchange_parallel(std::span<float>(local).subspan(shard.offset, n),
                                            shard.view.span(), alpha,
                                            std::span<float>(delta).subspan(shard.offset, n));
      }
    } else {
      {
        auto read = tracer.span(lane, "smb.read", id);
        global.read(staged);
      }
      auto math = tracer.span(lane, "core.elastic_exchange", id);
      sc::core::elastic_exchange_parallel(local, staged, alpha, delta);
    }
    sc::dl::copy_params_from(net, local);
    updater->hand_off(std::move(lock), id);
  };

  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t id = Tracer::iteration_id(worker, i);
    auto iteration = tracer.span(lane, "core.iteration", id);
    const bool sharing = i % options.update_interval == 0;
    if (!hybrid && sharing) exchange(id);
    sc::data::Batch batch;
    {
      auto span = tracer.span(lane, "data.next", id);
      batch = prefetcher.next();
    }
    net.input("data") = std::move(batch.data);
    net.input("label") = std::move(batch.labels);
    {
      auto span = tracer.span(lane, "dl.forward", id);
      (void)net.forward(/*train=*/true);
    }
    {
      auto span = tracer.span(lane, "dl.backward", id);
      net.backward();
    }
    if (hybrid) {
      sc::dl::copy_grads_to(net, grads);
      {
        auto span = tracer.span(lane, "coll.allreduce", id);
        comm.all_reduce_mean(grads);
      }
      sc::dl::copy_grads_from(net, grads);
    }
    {
      auto span = tracer.span(lane, "dl.solver", id);
      solver.step();
    }
    if (hybrid && sharing) {
      if (root) {
        exchange(id);
        sc::dl::copy_params_to(net, local);
      }
      {
        auto span = tracer.span(lane, "coll.broadcast", id);
        comm.broadcast(0, local);
      }
      if (!root) sc::dl::copy_params_from(net, local);
    }
  }
  if (updater) (void)updater->wait_idle();  // the last flush landed
}

/// Times `fn` at least `min_reps` times and until `budget_s` has passed
/// (at most `max_reps`).
template <typename Fn>
void repeat_for(double budget_s, int min_reps, int max_reps, Fn fn) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < max_reps && (rep < min_reps || seconds_since(start) < budget_s); ++rep) {
    fn(rep);
  }
}

/// fwd+bwd of the workload's model at the current pool width, from
/// `submitters` threads at once; span `name` around each pass.
void forward_backward_probe(const sc::core::DistTrainOptions& options,
                            const sc::data::SynthImageDataset& train_set, int submitters,
                            const char* name, Tracer& tracer, const Lanes& lanes) {
  run_threads(submitters, [&](int t) {
    sc::dl::Net net = sc::dl::make_model(options.model_family, options.input);
    sc::common::Rng rng(options.seed);
    net.init_params(rng);
    sc::data::ShardedLoader loader(train_set, t, submitters, options.batch_size, options.seed);
    sc::data::Batch batch;
    loader.next(batch);
    net.input("data") = batch.data;
    net.input("label") = batch.labels;
    (void)net.forward(/*train=*/true);  // shape setup and scratch allocation
    net.backward();
    repeat_for(0.6, 3, 50, [&](int) {
      auto span = tracer.span(lanes.main(t), name);
      (void)net.forward(/*train=*/true);
      net.backward();
    });
  });
}

sc::sim::Task<void> flow(sc::net::Fabric& fabric, sc::net::LinkId tx, sc::net::LinkId rx,
                         int transfers, std::int64_t bytes) {
  for (int k = 0; k < transfers; ++k) co_await fabric.transfer(tx, rx, bytes);
}

struct FabricProbe {
  double wall_s = 0.0;
  double us_per_transfer = 0.0;
  std::uint64_t events = 0;
};

/// `flows` clients streaming `transfers` 4 MiB transfers each into one
/// server endpoint: max-min fair sharing recomputes every flow's rate at
/// every arrival and departure, so host cost per transfer grows with flows.
FabricProbe fabric_probe(int flows, int transfers, Tracer& tracer, const Lanes& lanes,
                         const char* name) {
  auto span = tracer.span(lanes.probe(), name);
  sc::sim::Simulation sim;
  sc::net::Fabric fabric(sim);
  const sc::net::Fabric::Endpoint server = fabric.add_endpoint("smb", 7e9);
  std::vector<sc::net::Fabric::Endpoint> clients;
  for (int f = 0; f < flows; ++f) {
    clients.push_back(fabric.add_endpoint("worker" + std::to_string(f), 7e9));
  }
  for (const sc::net::Fabric::Endpoint& client : clients) {
    sim.spawn(flow(fabric, client.tx, server.rx, transfers, std::int64_t{4} << 20));
  }
  const Clock::time_point start = Clock::now();
  sim.run();
  FabricProbe probe;
  probe.wall_s = seconds_since(start);
  probe.us_per_transfer = probe.wall_s * 1e6 / (static_cast<double>(flows) * transfers);
  probe.events = sim.events_dispatched();
  return probe;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid)) +
          upper) /
         2.0;
}

LayerMetrics core_metrics(const sc::core::TrainResult& result) {
  double train = 0.0;
  double exchange = 0.0;
  double collective = 0.0;
  double data_wait = 0.0;
  std::int64_t iterations = 0;
  std::int64_t exchanges = 0;
  for (const sc::core::WorkerStats& stats : result.worker_stats) {
    train += stats.train_seconds;
    exchange += stats.exchange_seconds;
    collective += stats.collective_seconds;
    data_wait += stats.data_wait_seconds;
    iterations += stats.iterations;
    exchanges += stats.exchanges;
  }
  const double accounted = train + exchange + collective + data_wait;
  LayerMetrics metrics;
  metrics["core.iter_ms"] =
      iterations > 0 ? accounted * 1e3 / static_cast<double>(iterations) : 0.0;
  const double share = accounted > 0.0 ? 1.0 / accounted : 0.0;
  metrics["core.train_share"] = train * share;
  metrics["core.exchange_share"] = exchange * share;
  metrics["core.collective_share"] = collective * share;
  metrics["core.data_wait_share"] = data_wait * share;
  metrics["core.exchanges_per_iter"] =
      iterations > 0 ? static_cast<double>(exchanges) / static_cast<double>(iterations) : 0.0;
  return metrics;
}

std::vector<std::string> replay_lanes(const sc::core::DistTrainOptions& options) {
  const Lanes lanes = lanes_of(options);
  std::vector<std::string> names;
  for (std::size_t w = 0; w < lanes.worker_lanes; ++w) {
    names.push_back("worker " + std::to_string(w));
  }
  for (std::size_t w = 0; w < lanes.workers; ++w) {
    names.push_back("worker " + std::to_string(w) + " update");
  }
  names.emplace_back("probes");
  return names;
}

LayerMetrics measure_layers(const sc::core::DistTrainOptions& options, int iterations,
                            Tracer& tracer) {
  const Lanes lanes = lanes_of(options);
  const sc::data::SynthImageDataset train_set(options.train_data);
  const sc::data::SynthImageDataset test_set(options.test_data);

  std::vector<std::unique_ptr<sc::smb::SmbServer>> servers;
  Shared shared;
  shared.options = &options;
  shared.train_set = &train_set;
  for (int s = 0; s < options.smb_servers; ++s) {
    servers.push_back(std::make_unique<sc::smb::SmbServer>());
    shared.servers.push_back(servers.back().get());
  }
  {
    sc::dl::Net init = sc::dl::make_model(options.model_family, options.input);
    sc::common::Rng rng(options.seed);
    init.init_params(rng);
    shared.initial_weights.resize(init.param_count());
    sc::dl::copy_params_to(init, shared.initial_weights);
  }
  const std::size_t param_count = shared.initial_weights.size();
  for (int g = 0; g < options.workers / options.group_size; ++g) {
    shared.groups.push_back(std::make_unique<sc::coll::DeviceGroup>(options.group_size));
  }
  shared.key = static_cast<sc::smb::ShmKey>((options.seed | 1) & 0x7fffffff);
  sc::core::ShardedBuffer global =
      sc::core::ShardedBuffer::create(shared.servers, shared.key, param_count);
  global.write(shared.initial_weights);

  run_threads(options.workers, [&](int worker) {
    replay_worker(shared, worker, iterations, tracer, lanes);
  });

  LayerMetrics metrics;
  auto median_ms = [&](const char* name) { return median(tracer.durations_ms(name)); };
  for (const char* name : {"dl.forward", "dl.backward", "dl.solver", "smb.read_pinned",
                           "smb.write", "smb.accumulate", "core.elastic_exchange",
                           "data.next"}) {
    metrics[std::string(name) + "_ms"] = median_ms(name);
  }
  const std::vector<double> iteration_ms = tracer.durations_ms("core.iteration");
  double iteration_sum = 0.0;
  for (double ms : iteration_ms) iteration_sum += ms;
  metrics["replay.iteration_ms"] =
      iteration_ms.empty() ? 0.0 : iteration_sum / static_cast<double>(iteration_ms.size());

  // Evaluation of the replay's final W_g on the test split.
  std::vector<float> snapshot(param_count);
  sc::dl::Net eval_net = sc::dl::make_model(options.model_family, options.input);
  repeat_for(0.5, 3, 10, [&](int) {
    auto span = tracer.span(lanes.probe(), "eval.evaluate");
    global.read(snapshot);
    sc::dl::copy_params_from(eval_net, snapshot);
    (void)sc::core::evaluate(eval_net, test_set);
  });
  metrics["eval.evaluate_ms"] = median_ms("eval.evaluate");

  // Staged SMB read (off the path while the exchange reads zero-copy).
  repeat_for(0.2, 5, 200, [&](int) {
    auto span = tracer.span(lanes.probe(), "smb.read");
    global.read(snapshot);
  });
  metrics["smb.read_ms"] = median_ms("smb.read");
  metrics["smb.gb_per_s"] =
      static_cast<double>(param_count * sizeof(float)) / (metrics["smb.read_ms"] * 1e6);

  // Collectives in a group of 4 at the model's size, where the workload's
  // own loop makes none.
  if (options.group_size == 1) {
    sc::coll::DeviceGroup group(4);
    run_threads(4, [&](int device) {
      sc::coll::Communicator comm = group.communicator(device);
      std::vector<float> buffer(shared.initial_weights);
      for (int rep = 0; rep < 20; ++rep) {
        {
          auto span = tracer.span(lanes.main(device), "coll.allreduce");
          comm.all_reduce_mean(buffer);
        }
        auto span = tracer.span(lanes.main(device), "coll.broadcast");
        comm.broadcast(0, buffer);
      }
    });
  }
  metrics["coll.allreduce_ms"] = median_ms("coll.allreduce");
  metrics["coll.broadcast_ms"] = median_ms("coll.broadcast");

  // Pool width: fwd+bwd at width 1 against the default width, from one
  // submitter and from one submitter per worker.
  sc::common::parallel::shutdown();
  const int default_width = sc::common::parallel::thread_count();
  for (const int width : {1, default_width}) {
    sc::common::parallel::set_thread_count(width);
    const bool narrow = width == 1;
    forward_backward_probe(options, train_set, 1,
                           narrow ? "parallel.solo_width1" : "parallel.solo_default", tracer,
                           lanes);
    if (options.workers > 1) {
      forward_backward_probe(options, train_set, options.workers,
                             narrow ? "parallel.contended_width1" : "parallel.contended_default",
                             tracer, lanes);
    }
  }
  sc::common::parallel::shutdown();  // back to the lazily started default
  metrics["parallel.speedup_solo"] =
      median_ms("parallel.solo_width1") / median_ms("parallel.solo_default");
  metrics["parallel.speedup_contended"] =
      options.workers > 1
          ? median_ms("parallel.contended_width1") / median_ms("parallel.contended_default")
          : metrics["parallel.speedup_solo"];

  metrics["arena.peak_mb"] =
      static_cast<double>(sc::common::arena::global_arena().stats().total.bytes_peak) /
      (1024.0 * 1024.0);

  // Simulator and fabric model, standalone.
  const FabricProbe narrow = fabric_probe(16, 3000, tracer, lanes, "net.fabric_16");
  const FabricProbe wide = fabric_probe(96, 400, tracer, lanes, "net.fabric_96");
  metrics["net.transfer_us_16"] = narrow.us_per_transfer;
  metrics["net.transfer_us_96"] = wide.us_per_transfer;
  metrics["sim.events_per_s"] =
      static_cast<double>(narrow.events + wide.events) / (narrow.wall_s + wide.wall_s);
  return metrics;
}

}  // namespace perfbench
