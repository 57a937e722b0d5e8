// perfbench: end-to-end and per-layer benchmark of the ShmCaffe
// reproduction.  See README.md for the workloads, metrics and noise.
//
//   perfbench --workload a4_inception --seed 1 --seconds 15 --trace 0
//             [--trace-out spans.json]
//
// --trace 0 calls the workload repeatedly for --seconds and reports the
// end-to-end metrics; --trace 1 makes one untraced call (core.* shares from
// its WorkerStats), then the traced replay and layer probes, writes the
// spans to --trace-out and reports the per-layer metrics.  Every call's
// outputs are checked.  The last stdout line is the JSON result.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/arena.h"
#include "common/parallel.h"
#include "common/units.h"
#include "core/trainer.h"
#include "host.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace {

namespace sc = shmcaffe;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"run_s", "s"},
    {"train_samples_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.iter_ms", "ms"},
    {"core.train_share", "fraction"},
    {"core.exchange_share", "fraction"},
    {"core.collective_share", "fraction"},
    {"core.data_wait_share", "fraction"},
    {"core.exchanges_per_iter", "count"},
    {"core.elastic_exchange_ms", "ms"},
    {"dl.forward_ms", "ms"},
    {"dl.backward_ms", "ms"},
    {"dl.solver_ms", "ms"},
    {"parallel.speedup_solo", "ratio"},
    {"parallel.speedup_contended", "ratio"},
    {"smb.read_ms", "ms"},
    {"smb.read_pinned_ms", "ms"},
    {"smb.write_ms", "ms"},
    {"smb.accumulate_ms", "ms"},
    {"smb.gb_per_s", "GB/s"},
    {"coll.allreduce_ms", "ms"},
    {"coll.broadcast_ms", "ms"},
    {"data.next_ms", "ms"},
    {"eval.evaluate_ms", "ms"},
    {"arena.peak_mb", "MB"},
    {"sim.events_per_s", "1/s"},
    {"net.transfer_us_16", "us"},
    {"net.transfer_us_96", "us"},
    {"trace.overhead_share", "fraction"},
};

/// Cold set-ups are repeated at least kSetupRepeats times and for at least
/// kSetupSeconds; the median is reported.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 1.0;
/// Every --trace 0 run makes at least this many calls and reads its peak
/// RSS after the last of them.
constexpr std::size_t kRssCall = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed || !(args.seconds > 0.0) ||
      args.trace < 0) {
    return std::nullopt;
  }
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Pins the calling thread to the `index`-th (mod count) CPU it may run on
/// and restores its affinity on destruction.  A single-threaded call then
/// visits every CPU in turn, so one CPU slowed by a neighbour on a shared
/// host weighs the same in every run instead of deciding whole runs.
class RoundRobinPin {
 public:
  explicit RoundRobinPin(std::size_t index) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count <= 0) return;
    int skip = static_cast<int>(index % static_cast<std::size_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  RoundRobinPin(const RoundRobinPin&) = delete;
  RoundRobinPin& operator=(const RoundRobinPin&) = delete;
  ~RoundRobinPin() {
    if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Attempted/failed call counts and the problems found.
class Ledger {
 public:
  void record(const std::string& call, const std::vector<std::string>& problems) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& problem : problems) {
      std::printf("check failed: %s: %s\n", call.c_str(), problem.c_str());
    }
  }
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

/// One checked call of a functional configuration; nullopt if it threw.
/// The call's final loss becomes the reference for its iteration count if
/// there was none.
std::optional<sc::core::TrainResult> train_call(const sc::core::DistTrainOptions& options,
                                                const perfbench::Expectations& expect,
                                                perfbench::LossReferences& references,
                                                const char* label, Ledger& ledger) {
  try {
    sc::core::TrainResult result = sc::core::train_shmcaffe(options);
    ledger.record(label, perfbench::check_train(result, options.workers,
                                                perfbench::target_iterations(options), expect,
                                                references));
    references.emplace(perfbench::summed_iterations(result), result.final_loss);
    return result;
  } catch (const std::exception& error) {
    ledger.record(label, {std::string("threw: ") + error.what()});
  }
  return std::nullopt;
}

std::optional<sc::cluster::PlatformTiming> sim_call(
    const sc::core::SimShmCaffeOptions& options, const perfbench::Expectations& expect,
    std::optional<sc::SimTime> reference, const char* label, Ledger& ledger) {
  try {
    sc::cluster::PlatformTiming timing = sc::core::simulate_shmcaffe(options);
    ledger.record(label, perfbench::check_sim(timing, options.workers, options.iterations,
                                              expect, reference));
    return timing;
  } catch (const std::exception& error) {
    ledger.record(label, {std::string("threw: ") + error.what()});
  }
  return std::nullopt;
}

/// Median wall time of repeated cold set-ups: the pool is stopped and the
/// arena's free slabs dropped before each, so every repeat pays thread start
/// and first-touch allocation.
double measure_setup(const Workload& w, Ledger& ledger) {
  std::vector<double> times;
  const Clock::time_point begin = Clock::now();
  while (times.size() < kSetupRepeats || seconds_since(begin) < kSetupSeconds) {
    sc::common::parallel::shutdown();
    (void)sc::common::arena::global_arena().trim();
    std::optional<RoundRobinPin> pin;  // single-threaded, placed like the calls
    if (w.simulated) pin.emplace(times.size());
    const Clock::time_point start = Clock::now();
    if (w.simulated) {
      sc::core::SimShmCaffeOptions options = w.sim;
      options.iterations = 1;
      perfbench::Expectations one_iteration;
      one_iteration.makespan_hi = w.expect.makespan_hi;
      (void)sim_call(options, one_iteration, std::nullopt, "setup", ledger);
    } else {
      perfbench::LossReferences none;
      (void)train_call(perfbench::setup_options(w.train), perfbench::Expectations{}, none,
                       "setup", ledger);
    }
    times.push_back(seconds_since(start));
  }
  return perfbench::median(times);
}

/// Prints every metric of `specs` by name, then the JSON result line.  A
/// metric that was not measured makes the result incorrect.
void print_result(const Ledger& ledger, const perfbench::LayerMetrics& values,
                  const MetricSpec* specs, std::size_t count) {
  std::string metrics;
  bool complete = true;
  for (std::size_t i = 0; i < count; ++i) {
    const auto found = values.find(specs[i].name);
    const double value = found != values.end() ? found->second : std::nan("");
    if (!std::isfinite(value)) {
      std::printf("check failed: metric %s was not measured\n", specs[i].name);
      complete = false;
    }
    char entry[200];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, std::isfinite(value) ? value : 0.0,
                  specs[i].unit);
    metrics += entry;
    std::printf("metric %-28s %14.6g %s\n", specs[i].name, value, specs[i].unit);
  }
  const bool correct = complete && ledger.failed() == 0 && ledger.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", ledger.attempted(), ledger.failed(), metrics.c_str());
}

/// --trace 0: calls the workload until `seconds` have passed.
perfbench::LayerMetrics end_to_end(const Workload& w, double seconds, Ledger& ledger) {
  perfbench::LayerMetrics values;
  values["setup_s"] = measure_setup(w, ledger);
  std::vector<double> run_s;
  std::vector<double> samples_per_s;
  perfbench::LossReferences reference_losses;
  std::optional<sc::SimTime> reference_makespan;
  const Clock::time_point start = Clock::now();
  while (run_s.size() < kRssCall || seconds_since(start) < seconds) {
    const Clock::time_point call = Clock::now();
    double samples = 0.0;
    if (w.simulated) {
      const RoundRobinPin pin(run_s.size());
      const auto timing = sim_call(w.sim, w.expect, reference_makespan, "call", ledger);
      if (timing && !reference_makespan) reference_makespan = timing->makespan;
      // Modelled samples: completed worker-iterations at the model's batch.
      if (timing) {
        samples = static_cast<double>(timing->completed_worker_iterations) *
                  sc::cluster::TrainingRun{}.batch_per_gpu;
        std::printf("call %zu: makespan %.9f s\n", run_s.size() + 1,
                    sc::units::to_seconds(timing->makespan));
      }
    } else {
      const auto result = train_call(w.train, w.expect, reference_losses, "call", ledger);
      if (result) {
        samples = static_cast<double>(perfbench::summed_iterations(*result) *
                                      w.train.batch_size);
        std::printf("call %zu: accuracy %.4f, loss %.9g, iterations %lld\n", run_s.size() + 1,
                    result->final_accuracy, result->final_loss,
                    static_cast<long long>(perfbench::summed_iterations(*result)));
      }
    }
    const double elapsed = seconds_since(call);
    run_s.push_back(elapsed);
    // Peak RSS keeps growing over the first calls as glibc's per-thread
    // malloc arenas fill, so it is read at a fixed point.
    if (run_s.size() == kRssCall) values["peak_rss_mb"] = peak_rss_mb();
    samples_per_s.push_back(samples / elapsed);
  }
  values["run_s"] = perfbench::median(run_s);
  values["train_samples_per_s"] = perfbench::median(samples_per_s);
  std::printf("calls %zu, wall seconds:", run_s.size());
  for (double s : run_s) std::printf(" %.3f", s);
  std::printf("\n");
  return values;
}

/// --trace 1: core.* from one untraced call, then the traced replay.
perfbench::LayerMetrics per_layer(const Workload& w, const Args& args, const std::string& host,
                                  Ledger& ledger) {
  if (w.simulated) (void)sim_call(w.sim, w.expect, std::nullopt, "call", ledger);
  perfbench::LossReferences none;
  const auto result = train_call(w.train, w.expect, none,
                                 w.simulated ? "functional twin call" : "call", ledger);
  perfbench::LayerMetrics values;
  if (result) values = perfbench::core_metrics(*result);

  perfbench::Tracer tracer(perfbench::replay_lanes(w.train));
  try {
    const perfbench::LayerMetrics layers =
        perfbench::measure_layers(w.train, w.replay_iterations, tracer);
    values.insert(layers.begin(), layers.end());
    ledger.record("replay", {});
  } catch (const std::exception& error) {
    ledger.record("replay", {std::string("threw: ") + error.what()});
  }
  if (values.count("core.iter_ms") && values["core.iter_ms"] > 0.0) {
    values["trace.overhead_share"] =
        values["replay.iteration_ms"] / values["core.iter_ms"] - 1.0;
  }
  if (!args.trace_out.empty()) {
    const std::string metadata = "{\"workload\": \"" + w.name +
                                 "\", \"seed\": " + std::to_string(args.seed) +
                                 ", \"replay_iterations\": " +
                                 std::to_string(w.replay_iterations) + ", \"host\": " + host + "}";
    if (tracer.write_chrome_json(args.trace_out, metadata)) {
      std::printf("trace: %zu spans written to %s\n", tracer.span_count(),
                  args.trace_out.c_str());
    } else {
      ledger.record("trace export", {"cannot write " + args.trace_out});
    }
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  Workload w;
  try {
    w = perfbench::make_workload(args->workload, args->seed);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
  const std::string host = perfbench::to_json(perfbench::host_fingerprint());
  std::printf("host %s\n", host.c_str());
  std::printf("workload %s seed %llu\n", w.name.c_str(),
              static_cast<unsigned long long>(args->seed));
  std::fflush(stdout);

  Ledger ledger;
  if (args->trace == 0) {
    print_result(ledger, end_to_end(w, args->seconds, ledger), kEndToEnd, std::size(kEndToEnd));
  } else {
    print_result(ledger, per_layer(w, *args, host, ledger), kPerLayer, std::size(kPerLayer));
  }
  return 0;
}
