// Per-layer measurements: the traced replay of a functional workload's
// Fig. 6 worker loop, and probes of the layer calls that loop does not make.
//
// The replay runs the workload's workers as threads, each making the
// trainer's calls through the layers' public functions (SMB exchange via
// ShardedBuffer, eqs. (5)+(6) via elastic_exchange_parallel, the
// prefetcher, Net::forward/backward, SgdSolver::step, the NCCL-style
// collectives), with a span around each call.  A call off the workload's
// path (a staged SMB read under zero-copy exchange, collectives in
// ShmCaffe-A) is timed by a probe of the same call at the same size.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "trace.h"

namespace perfbench {

/// Layer metric values by BENCHMARK.json per_layer name.
using LayerMetrics = std::map<std::string, double>;

/// core.* metrics from an untraced call's WorkerStats (no tracing cost):
/// mean accounted iteration time, the train/exchange/collective/data-wait
/// shares of it, and SEASGD exchanges per iteration.
[[nodiscard]] LayerMetrics core_metrics(const shmcaffe::core::TrainResult& result);

/// Lane names for a Tracer that measure_layers(options, ...) records into.
[[nodiscard]] std::vector<std::string> replay_lanes(
    const shmcaffe::core::DistTrainOptions& options);

/// Replays `iterations` iterations of every worker of `options`, then runs
/// the probes; returns every layer metric except core.* and
/// trace.overhead_share, plus "replay.iteration_ms" (the replay's mean
/// iteration time, comparable with core.iter_ms).
[[nodiscard]] LayerMetrics measure_layers(const shmcaffe::core::DistTrainOptions& options,
                                          int iterations, Tracer& tracer);

/// Median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
