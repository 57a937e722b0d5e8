#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "coll/nccl.h"
#include "common/arena.h"
#include "core/evaluate.h"
#include "core/progress_board.h"
#include "elastic/membership.h"
#include "core/seasgd_math.h"
#include "core/sharded_buffer.h"
#include "data/loader.h"
#include "dl/param_vector.h"
#include "fault/injector.h"
#include "minimpi/minimpi.h"
#include "recovery/checkpoint.h"
#include "recovery/integrity.h"
#include "recovery/replicated_smb.h"
#include "recovery/schedule.h"
#include "smb/client.h"
#include "smb/server.h"

namespace shmcaffe::core {
namespace {

constexpr smb::ShmKey kProgressKeyOffset = 1'000'000;

/// The Fig. 6 update-thread state: one per group root.
struct ExchangeState {
  std::mutex mutex;
  std::condition_variable cv;
  bool pending = false;  // a weight increment awaits flushing to the SMB
  bool stopping = false;
  /// Weight-increment staging (eq. 5 output), arena-backed: sized once per
  /// worker life and recycled across lives through the registry.  The buffer
  /// is an owning arena allocation (not a view of SMB storage), shared
  /// between the main and update threads under `mutex` for the worker's
  /// whole life — a deliberate escape.
  common::arena::Buffer delta SHMCAFFE_PIN_ESCAPE{"trainer.exchange.delta"};
};

struct WorkerShared {
  const DistTrainOptions* options = nullptr;
  const data::SynthImageDataset* train_set = nullptr;
  /// One service per shard: the raw SmbServer (smb_replicas == 1) or the
  /// shard's ReplicatedSmb ensemble — workers are oblivious to which.
  std::vector<smb::SmbService*> services;
  minimpi::Context* mpi = nullptr;
  std::vector<std::unique_ptr<coll::DeviceGroup>>* groups = nullptr;
  std::int64_t target_iterations = 0;
  int lr_step_iterations = 0;
  smb::ShmKey base_key = 0;
  /// Set by the master once W_g holds its initial weights; scheduled
  /// segment corruption waits for it (flips in the fresh segment would be
  /// overwritten by the initial write and never detected).
  std::atomic<bool> global_initialised{false};
  /// Planned segment corruptions the fault scheduler has neither fired nor
  /// abandoned.  A finished group root holds its exit until this reaches
  /// zero, so no planned burst is dropped because the run ended first.
  std::atomic<int> corruptions_unresolved{0};
  /// The run's fault plan holds segment corruptions: finished group roots
  /// verify W_g once before they leave.
  bool corruption_planned = false;
  /// Worker slots including reserved join capacity (== workers when the run
  /// is not elastic); final_iterations/worker_stats/outcomes are this long.
  int capacity = 0;
  std::atomic<std::int64_t> total_iterations{0};
  std::vector<std::int64_t> final_iterations;  // one slot per worker
  std::vector<WorkerStats> worker_stats;       // one slot per worker
  std::vector<WorkerOutcome> outcomes;         // one slot per worker
  // --- elastic membership -------------------------------------------------
  /// The run's membership registry, or nullptr for a fixed-membership run.
  elastic::MembershipService* membership = nullptr;
  /// Serialises straggler sweeps across the run's workers.  Each worker
  /// holds its own ProgressBoard, whose sweep lock covers only that object:
  /// two survivors sweeping the shared board at once would both see the
  /// same silent worker alive and both record its quarantine.
  std::mutex straggler_sweep;
  // --- recovery ----------------------------------------------------------
  const recovery::TrainCheckpoint* resume = nullptr;  // validated, or null
  const recovery::CheckpointStore* checkpoint_store = nullptr;
  std::atomic<std::int64_t> checkpoints_taken{0};
  std::atomic<std::uint64_t> checkpoint_sequence{0};
  // --- data integrity ----------------------------------------------------
  /// Per-shard replica ensembles, for checkpoint-window scrubbing (empty
  /// when smb_replicas == 1 — scrubbing needs a peer to vote against).
  std::vector<recovery::ReplicatedSmb*> ensembles;
  std::atomic<std::int64_t> integrity_rollbacks{0};
};

/// Adds the elapsed seconds since `from` to `sink` and resets `from`.
class SegmentTimer {
 public:
  using Clock = std::chrono::steady_clock;
  void charge(double& sink) {
    const Clock::time_point now = Clock::now();
    sink += std::chrono::duration<double>(now - mark_).count();
    mark_ = now;
  }
  void reset() { mark_ = Clock::now(); }

 private:
  Clock::time_point mark_ = Clock::now();
};

/// Which life of a worker slot this call runs.
enum class WorkerLife {
  kInitial,   ///< an original rank, from the start of the run
  kRejoin,    ///< a replacement life for a crashed/fenced rank (recovery)
  kColdJoin,  ///< an elastic cold join into a reserved capacity slot
};

/// kRejoin runs a replacement life for a crashed worker slot: it attaches
/// to the existing segments by SHM key (the Fig. 2 slave path), adopts the
/// current W_g, and re-registers on the progress board under a fresh
/// incarnation number so anything the previous life left behind is fenced.
/// kColdJoin is the elastic variant: the slot never lived before, so it is
/// admitted onto the board (fresh incarnation, never a dead rank's slot)
/// and the membership service has already rebalanced the shard map for it.
/// Both late lives skip the MPI collectives — their peers ran them long ago.
void run_worker(WorkerShared& shared, int worker, WorkerLife life = WorkerLife::kInitial) {
  const DistTrainOptions& options = *shared.options;
  const bool rejoin = life == WorkerLife::kRejoin;
  const bool cold_join = life == WorkerLife::kColdJoin;
  const int group_size = options.group_size;
  const int group_index = worker / group_size;
  const int local_rank = worker % group_size;
  const bool is_root = local_rank == 0;
  const bool is_async = group_size == 1;

  // Cold-join slots sit beyond the MPI world and the device groups (both
  // are sized for the initial ranks); elastic runs are pure SEASGD
  // (group_size == 1, validated by train_shmcaffe), so a joiner never
  // touches either handle.
  minimpi::Endpoint mpi;
  coll::Communicator comm;
  if (!cold_join) {
    mpi = shared.mpi->endpoint(worker);
    comm = (*shared.groups)[static_cast<std::size_t>(group_index)]->communicator(local_rank);
  }

  dl::Net net = dl::make_model(options.model_family, options.input);
  const std::size_t param_count = net.param_count();

  // A resumed run restores worker cursors from the checkpoint; replacement
  // and cold-join lives start their own count from zero (their board slot
  // was reset or freshly admitted).
  const recovery::TrainCheckpoint* resume =
      (rejoin || cold_join) ? nullptr : shared.resume;
  const std::int64_t start_iteration =
      resume != nullptr ? resume->worker_iterations[static_cast<std::size_t>(worker)] : 0;

  // --- Fig. 2 initialisation: the master creates the global-weight segment
  // and the progress board, then broadcasts the SHM key over MPI.  A
  // replacement life skips the collectives (its peers ran them long ago)
  // and goes straight to the slave attach path.
  smb::ShmKey shm_key = 0;
  ShardedBuffer global;
  std::unique_ptr<ProgressBoard> board;
  std::int64_t incarnation = ProgressBoard::kFirstIncarnation;
  smb::SmbService& board_server = *shared.services.front();
  if (rejoin || cold_join) {
    shm_key = shared.base_key;
    global = ShardedBuffer::attach(shared.services, shm_key, param_count);
    board = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                            options.workers, /*create=*/false);
    incarnation = cold_join ? board->admit(worker) : board->readmit(worker);
  } else if (worker == 0) {
    shm_key = shared.base_key;
    global = ShardedBuffer::create(shared.services, shm_key, param_count);
    board = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                            options.workers, /*create=*/true,
                                            shared.capacity);
    common::arena::Buffer init{"trainer.init"};
    init.assign(param_count, 0.0F);
    if (resume != nullptr) {
      // W_g exactly as checkpointed
      std::copy(resume->global_weights.begin(), resume->global_weights.end(), init.data());
    } else {
      common::Rng init_rng(options.seed);
      net.init_params(init_rng);
      dl::copy_params_to(net, init.span());
    }
    global.write(init.span());
    shared.global_initialised.store(true, std::memory_order_release);
  }
  if (!rejoin && !cold_join) {
    mpi.broadcast_value(0, shm_key);
    if (worker != 0) {
      global = ShardedBuffer::attach(shared.services, shm_key, param_count);
      board = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                              options.workers, /*create=*/false);
    }
  }
  board->heartbeat(worker, incarnation);  // arm liveness before the first iteration
  // Restore this worker's public iteration count so kAverageIterations
  // accounting continues where the interrupted run left off.
  if (start_iteration > 0) board->report(worker, start_iteration, incarnation);
  // Every group root owns a private weight-increment buffer (Fig. 5: the
  // dW_x buffers are not shared among other workers).  A replacement life
  // re-attaches its crashed predecessor's orphaned buffer.
  ShardedBuffer delta_buffer;
  if (is_root) {
    const smb::ShmKey delta_key = shm_key + 1 + static_cast<smb::ShmKey>(worker);
    if (rejoin) {
      try {
        delta_buffer = ShardedBuffer::attach(shared.services, delta_key, param_count);
      } catch (const smb::SmbNotFound&) {
        delta_buffer = ShardedBuffer::create(shared.services, delta_key, param_count);
      }
    } else {
      delta_buffer = ShardedBuffer::create(shared.services, delta_key, param_count);
    }
  }
  if (!rejoin && !cold_join) mpi.barrier();

  // Elastic fan-out rotation: start every multi-shard SMB access at this
  // worker's home shard (rebalanced by the membership service on every
  // join/drain/evict) so concurrent exchanges spread across the shard
  // ensembles instead of all serialising on shard 0.
  elastic::MembershipService* const membership = shared.membership;
  auto home_shard = [membership, worker]() -> std::size_t {
    return membership != nullptr ? static_cast<std::size_t>(membership->home_shard(worker))
                                 : 0;
  };

  // Everyone adopts the initial global weights before training; the resumed
  // owner restores its exact checkpointed parameters instead (they lag W_g
  // by the elastic difference).
  common::arena::Buffer local{"trainer.local"};
  local.assign(param_count, 0.0F);
  common::arena::Buffer global_copy{"trainer.global_copy"};
  global_copy.assign(param_count, 0.0F);
  try {
    global.read(local.span(), home_shard());
  } catch (const smb::SmbCorruption&) {
    // W_g is corrupt before this life's first read and nothing below us
    // could repair it.  Adopt freshly initialised parameters instead; the
    // first exchange surfaces the corruption again and rolls back properly.
    common::Rng init_rng(options.seed);
    net.init_params(init_rng);
    dl::copy_params_to(net, local.span());
  }
  dl::copy_params_from(net, local.span());
  if (resume != nullptr && worker == 0) {
    dl::copy_params_from(net, resume->owner_params);
  }

  dl::SolverOptions solver_options = options.solver;
  solver_options.step_size = shared.lr_step_iterations;
  dl::SgdSolver solver(net, solver_options);
  if (resume != nullptr) {
    solver.set_iteration(static_cast<int>(
        worker == 0 ? resume->owner_solver_iteration : start_iteration));
    if (worker == 0) solver.set_momentum_state(resume->owner_momentum);
  }

  // Data shards are cut over the full slot capacity so a cold joiner gets a
  // shard of its own (capacity == workers in a fixed-membership run, so the
  // classic sharding is unchanged).
  data::ShardedLoader loader(*shared.train_set, worker, shared.capacity, options.batch_size,
                             options.seed ^ 0xda7aULL);
  if (start_iteration > 0) loader.skip_batches(start_iteration);
  data::Prefetcher prefetcher(std::move(loader), options.prefetch_depth);

  // --- Fig. 6 update thread (group roots only).
  ExchangeState exchange;
  exchange.delta.assign(param_count, 0.0F);
  std::thread update_thread;
  if (is_root) {
    // The update thread flushes T.A1-T.A4 while *holding* exchange.mutex:
    // that mutex IS the Fig. 6 mutual exclusion between the main thread's
    // T1/T2 window and the flush, and the only other party is the main
    // thread, which is parked on exchange.cv (mutex released) whenever the
    // flush runs.  lint:allow-next-line(no-blocking-under-lock)
    update_thread = std::thread([&exchange, &delta_buffer, &global, home_shard] {
      std::unique_lock lock(exchange.mutex);
      for (;;) {
        exchange.cv.wait(lock, [&] { return exchange.pending || exchange.stopping; });
        if (!exchange.pending) return;  // stopping with nothing pending
        try {
          // T.A1: store the weight increment in this worker's RSM segments.
          delta_buffer.write(exchange.delta.span(), home_shard());
          // T.A2-T.A4: exclusive server-side global accumulate (eq. 7),
          // shard by shard across the SMB servers starting at the home shard.
          delta_buffer.accumulate_into(global, home_shard());
        } catch (const smb::SmbUnavailable&) {
          // Every replica of some shard is gone.  Unblock the main thread
          // and bow out; its own SMB access surfaces the failure.
          exchange.pending = false;
          exchange.stopping = true;
          exchange.cv.notify_all();
          return;
        } catch (const smb::SmbCorruption&) {
          // Unrepairable corruption on the delta/global path: this increment
          // cannot land safely, so drop it.  The main thread's next exchange
          // read surfaces the corruption and rolls W_g back.
          exchange.pending = false;
          exchange.cv.notify_all();
          continue;
        }
        exchange.pending = false;
        exchange.cv.notify_all();  // T.A5: wake a blocked main thread
      }
    });
  }

  WorkerStats& stats = shared.worker_stats[static_cast<std::size_t>(worker)];
  const float alpha = static_cast<float>(options.moving_rate);
  auto seasgd_exchange = [&] {
    ++stats.exchanges;
    // T1/T2 must be mutually exclusive with the update thread's T.A1-T.A4:
    // block here until the previous increment has been flushed.
    std::unique_lock lock(exchange.mutex);
    exchange.cv.wait(lock, [&] { return !exchange.pending || exchange.stopping; });
    if (exchange.stopping) throw smb::SmbUnavailable("SMB lost during exchange");
    dl::copy_params_to(net, local.span());
    // Verified runs always stage: a pin is verified once, and rot landing
    // while it is held would reach T2 unchecked, so a repaired run could no
    // longer reproduce the fault-free one bitwise.  A staged read verifies
    // and copies under one segment lock.
    if (options.zero_copy_reads && !options.integrity.verify_on_read) {
      // T1 zero-copy: pin per-shard views of W_g (checksums verified once
      // at pin time) and run T2 directly against SMB storage — no staging
      // copy of the global weights at all.  Per-shard chunking changes
      // nothing numerically: eqs. (5)+(6) are elementwise, so the floats
      // match the staged path bitwise for any shard split or pool width.
      // T1/T2 run under exchange.mutex by design (mutual exclusion with the
      // update thread, which is parked on the cv here), and the pins are
      // dropped before the lock: frame-local, never pinned-across-unlock.
      // lint:allow-next-line(no-blocking-under-lock,pin-lifetime)
      for (ShardedBuffer::PinnedShard& shard : global.read_pinned(home_shard())) {
        // lint:allow-next-line(no-blocking-under-lock) pool fan-out inside
        elastic_exchange_parallel(                      // the T1/T2 window
            std::span<float>(local.data() + shard.offset, shard.view.size()),
            shard.view.span(), alpha,
            std::span<float>(exchange.delta.data() + shard.offset, shard.view.size()));
      }
    } else {
      // Same mutual-exclusion argument as the zero-copy branch above.
      // lint:allow-next-line(no-blocking-under-lock)
      global.read(global_copy.span(), home_shard());  // T1
      // T2: eqs. (5)+(6), chunked on the work pool (bitwise equal to the
      // scalar elastic_exchange for any SHMCAFFE_THREADS).
      // lint:allow-next-line(no-blocking-under-lock)
      elastic_exchange_parallel(local.span(), global_copy.span(), alpha,
                                exchange.delta.span());
    }
    dl::copy_params_from(net, local.span());
    exchange.pending = true;  // T3: hand the increment to the update thread
    lock.unlock();
    exchange.cv.notify_all();
  };

  // Unrepairable corruption surfaced on the global-weight path: degrade to
  // a rollback instead of aborting.  Restore W_g from the newest valid
  // checkpoint — or, without one, from this worker's own parameters
  // (consistent, if older) — and continue; the full rewrite refreshes the
  // segment checksums, healing every replica.
  auto integrity_rollback = [&] {
    shared.integrity_rollbacks.fetch_add(1, std::memory_order_relaxed);
    std::vector<float> restore;
    if (shared.checkpoint_store != nullptr) {
      std::optional<recovery::TrainCheckpoint> rollback;
      try {
        rollback = shared.checkpoint_store->load_latest();
      } catch (const std::exception&) {
        // unreadable store: fall through to the local-parameter restore
      }
      if (rollback.has_value() && rollback->global_weights.size() == param_count) {
        restore = std::move(rollback->global_weights);
      }
    }
    if (restore.empty()) {
      dl::copy_params_to(net, local.span());
      restore.assign(local.data(), local.data() + local.size());
    }
    global.write(restore, home_shard());
  };

  // Periodic crash-consistent checkpoint (owner worker only): quiesce the
  // update thread, snapshot W_g + the board counters + the owner solver
  // state, and hand it to the double-buffered store.
  const bool checkpointing = shared.checkpoint_store != nullptr && worker == 0 &&
                             options.checkpoint.interval_iterations > 0;
  auto save_checkpoint = [&](std::int64_t iteration) {
    recovery::TrainCheckpoint checkpoint;
    checkpoint.sequence =
        shared.checkpoint_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
    checkpoint.seed = options.seed;
    checkpoint.owner_solver_iteration = solver.iteration();
    checkpoint.worker_iterations.resize(static_cast<std::size_t>(options.workers));
    for (int w = 0; w < options.workers; ++w) {
      checkpoint.worker_iterations[static_cast<std::size_t>(w)] =
          w == worker ? iteration : board->iterations_of(w);
    }
    {
      std::unique_lock lock(exchange.mutex);
      exchange.cv.wait(lock, [&] { return !exchange.pending || exchange.stopping; });
      if (exchange.stopping) throw smb::SmbUnavailable("SMB lost during checkpoint");
      // Checkpoint consistency REQUIRES reading W_g inside the exchange
      // window: no accumulate can be in flight while the mutex is held.
      // lint:allow-next-line(no-blocking-under-lock)
      global.read(global_copy.span());  // consistent: no in-flight accumulate
    }
    checkpoint.global_weights.assign(global_copy.data(), global_copy.data() + global_copy.size());
    dl::copy_params_to(net, local.span());
    checkpoint.owner_params.assign(local.data(), local.data() + local.size());
    checkpoint.owner_momentum = solver.momentum_state();
    shared.checkpoint_store->save(checkpoint);
    shared.checkpoints_taken.fetch_add(1, std::memory_order_relaxed);
    // Checkpoint windows double as scrub windows: walk the replica
    // ensembles while the update thread is quiesced, repairing any silent
    // corruption before it is ever read.
    if (options.integrity.enabled() && options.integrity.scrub_on_checkpoint) {
      for (recovery::ReplicatedSmb* ensemble : shared.ensembles) ensemble->scrub();
    }
  };

  // Fault injection: crashes fell whole groups (a dead node takes all its
  // GPUs), keyed on the group root's worker index so every member of a
  // hybrid group breaks at the same iteration, before any collective could
  // deadlock on a missing peer.  Stalls are per individual worker.  A
  // replacement life does not replay its predecessor's faults.
  const fault::FaultInjector* faults = rejoin ? nullptr : options.faults;
  const int group_root_worker = worker - local_rank;

  // Straggler detection: route the transitions the shared-board sweep
  // applied into the membership registry so the executed-change counts (and
  // the fingerprint) see them.  Any worker may run the sweep; the board
  // serialises concurrent sweepers.
  std::vector<float> grads(group_size > 1 ? param_count : 0);
  std::vector<float> vote(1);
  std::int64_t iteration = start_iteration;
  // A replacement admitted after the stop flag went up leaves before its
  // first exchange: the run is over, so W_g stays as the cohort left it.
  bool stop = rejoin && board->stop_raised();
  bool crashed = false;
  bool drained = false;
  bool evicted = false;
  auto elastic_sweep = [&] {
    if (membership == nullptr || !options.membership_policy.straggler_detection) return;
    // One sweeper at a time records each transition once; a peer already
    // sweeping covers this caller too.
    std::unique_lock sweep(shared.straggler_sweep, std::try_to_lock);
    if (!sweep.owns_lock()) return;
    for (const elastic::StragglerTransition& transition :
         board->sweep_stragglers(options.membership_policy)) {
      switch (transition.verdict) {
        case elastic::StragglerVerdict::kQuarantine:
          membership->quarantine(transition.worker, iteration);
          break;
        case elastic::StragglerVerdict::kReadmit:
          membership->readmit_contributor(transition.worker, iteration);
          break;
        case elastic::StragglerVerdict::kEvict:
          membership->evict(transition.worker, iteration);
          break;
        case elastic::StragglerVerdict::kNone:
          break;
      }
    }
  };
  // The planned iteration at which this worker leaves voluntarily (-1:
  // never).  A drain applies to the slot's current life; a replacement life
  // honours it too.
  const std::int64_t drain_at =
      options.membership != nullptr ? options.membership->drain_iteration(worker) : -1;
  try {
    while (!stop) {
      if (faults != nullptr) {
        if (faults->crashes_at(group_root_worker, iteration)) {
          // Fail-stop: exit without reporting, marking, or releasing —
          // survivors must detect the death from the missed heartbeats.
          crashed = true;
          break;
        }
        const double stall = faults->stall_seconds(worker, iteration);
        if (stall > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(stall));
        }
      }
      // Voluntary drain: flush the pending increment so the last
      // contribution lands, register the departure (epoch bump + shard
      // rebalance), and leave cleanly.
      if (drain_at >= 0 && iteration >= drain_at && !board->stop_raised()) {
        if (is_root) {
          std::unique_lock lock(exchange.mutex);
          exchange.cv.wait(lock, [&] { return !exchange.pending || exchange.stopping; });
        }
        board->mark_drained(worker);
        if (membership != nullptr) membership->drain(worker, drain_at);
        drained = true;
        break;
      }
      // Fenced while stalled: dead is final for this life, so exit instead
      // of re-joining; an eviction by the straggler detector ends the same
      // way.  Async only — a hybrid member must keep lockstep with its
      // group (whose peers may already be blocked in a collective) and
      // exits through the root's stop vote instead.
      ProgressBoard::WorkerState my_state = ProgressBoard::WorkerState::kAlive;
      if (is_async) {
        my_state = board->state_of(worker);
        if (my_state == ProgressBoard::WorkerState::kDead) break;
        if (my_state == ProgressBoard::WorkerState::kEvicted) {
          evicted = true;
          break;
        }
      }
      // Quarantined: keep training toward readmission, but contribute
      // nothing — no SEASGD exchange until the sweep readmits this worker.
      const bool quarantined = my_state == ProgressBoard::WorkerState::kQuarantined;

      // Homogeneous-GPU pacing: do not run further ahead of the slowest
      // *live* worker than the configured skew (see DistTrainOptions).
      if (options.max_iteration_skew > 0) {
        while (!board->stop_raised() && !board->is_dead(worker) &&
               iteration - board->min_iterations() >
                   static_cast<std::int64_t>(options.max_iteration_skew)) {
          board->heartbeat(worker, incarnation);
          if (options.heartbeat_timeout_seconds > 0.0) {
            board->sweep_dead(options.heartbeat_timeout_seconds);
          }
          elastic_sweep();
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }

      const bool sharing = iteration % options.update_interval == 0;
      SegmentTimer timer;

      // ShmCaffe-A reads the global weight at the start of every iteration;
      // the paper deliberately does not hide T_rgw behind computation, to
      // avoid training on stale parameters.
      if (is_async && sharing && !quarantined) {
        try {
          seasgd_exchange();
        } catch (const smb::SmbCorruption&) {
          integrity_rollback();
        }
        timer.charge(stats.exchange_seconds);
      }

      data::Batch batch = prefetcher.next();
      timer.charge(stats.data_wait_seconds);
      net.input("data") = std::move(batch.data);
      net.input("label") = std::move(batch.labels);
      (void)net.forward(/*train=*/true);
      net.backward();
      timer.charge(stats.train_seconds);

      if (group_size > 1) {
        // A member posts this iteration's progress before entering the
        // allreduce, which its root leaves only once every member has
        // entered it: the root's termination vote below then reads every
        // member at this iteration, so the group ends exactly at its target.
        if (!is_root) board->report(worker, iteration + 1, incarnation);
        // Hybrid: intra-group synchronous SGD (ncclAllReduce of gradients).
        dl::copy_grads_to(net, grads);
        comm.all_reduce_mean(grads);
        dl::copy_grads_from(net, grads);
        timer.charge(stats.collective_seconds);
      }
      solver.step();  // eq. (2)
      timer.charge(stats.train_seconds);

      if (!is_async && sharing) {
        // Hybrid §III-D: the root exchanges with the SMB server, then
        // broadcasts the refreshed weights to its group.
        if (is_root) {
          try {
            seasgd_exchange();
          } catch (const smb::SmbCorruption&) {
            integrity_rollback();
          }
          dl::copy_params_to(net, local.span());
          timer.charge(stats.exchange_seconds);
        }
        comm.broadcast(0, local.span());
        if (!is_root) dl::copy_params_from(net, local.span());
        timer.charge(stats.collective_seconds);
      }

      ++iteration;
      shared.total_iterations.fetch_add(1, std::memory_order_relaxed);

      if (checkpointing && iteration % options.checkpoint.interval_iterations == 0) {
        try {
          save_checkpoint(iteration);
        } catch (const smb::SmbCorruption&) {
          integrity_rollback();
        }
      }

      // §III-E: aligned termination via the shared progress board.  The group
      // root takes the decision (its members posted their progress before
      // the allreduce); synchronous members follow it so the group never
      // diverges.
      elastic_sweep();
      if (is_root) {
        auto ask = [&] {
          return board->should_stop(options.termination, worker, iteration,
                                    shared.target_iterations,
                                    options.heartbeat_timeout_seconds, incarnation)
                     ? 1.0F
                     : 0.0F;
        };
        vote[0] = ask();
        // Held stop: while a quarantined slot's fate is open the board raises
        // no stop.  A contributor at its target parks like the pacing loop
        // (should_stop's report and dead sweep stand in for its heartbeat
        // and sweep) instead of training past the target, until the slot is
        // readmitted or fenced.
        while (vote[0] == 0.0F && iteration >= shared.target_iterations &&
               board->any_quarantined() &&
               board->state_of(worker) == ProgressBoard::WorkerState::kAlive) {
          elastic_sweep();
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          vote[0] = ask();
        }
      }
      if (group_size > 1) comm.broadcast(0, vote);
      stop = vote[0] != 0.0F;
      // A quarantined worker does not evaluate the cohort criterion
      // (should_stop always says "continue" for it); once it reaches its
      // own target it leaves quietly (finished, which also resolves its
      // hold on the stop) so an all-quarantined cohort cannot spin forever.
      if (!stop && quarantined && iteration >= shared.target_iterations) stop = true;
    }
  } catch (const smb::SmbUnavailable&) {
    // The SMB backing this worker is permanently gone (no replica left to
    // fail over to): an infrastructure-induced fail-stop.
    crashed = true;
  } catch (const smb::SmbCorruption&) {
    // Corruption surfaced outside a rollback-capable site (no checkpoint,
    // no clean replica): data loss, treated like a fail-stop.
    crashed = true;
  }

  shared.final_iterations[static_cast<std::size_t>(worker)] = iteration;
  stats.iterations = iteration;
  WorkerOutcome outcome = WorkerOutcome::kFinished;
  if (crashed) {
    outcome = WorkerOutcome::kCrashed;
  } else if (drained) {
    outcome = WorkerOutcome::kDrained;
  } else if (evicted) {
    outcome = WorkerOutcome::kEvicted;
  } else {
    try {
      switch (board->state_of(worker)) {
        case ProgressBoard::WorkerState::kDead:
          outcome = WorkerOutcome::kFenced;
          break;
        case ProgressBoard::WorkerState::kEvicted:
          outcome = WorkerOutcome::kEvicted;
          break;
        default:
          outcome = WorkerOutcome::kFinished;
          break;
      }
    } catch (const smb::SmbUnavailable&) {
      outcome = WorkerOutcome::kCrashed;
    }
  }
  shared.outcomes[static_cast<std::size_t>(worker)] = outcome;

  if (is_root) {
    {
      std::scoped_lock lock(exchange.mutex);
      exchange.stopping = true;
    }
    exchange.cv.notify_all();
    update_thread.join();  // thread hygiene even on the crash path
  }
  // Planned corruption is part of the run: a finished root holds its exit,
  // heartbeating so the survivors do not fence it, until the scheduler has
  // fired or abandoned every planned burst, then reads W_g once.  A burst
  // that landed after its last exchange is thereby detected and repaired,
  // or rolled back, exactly as its next exchange would have done.
  if (outcome == WorkerOutcome::kFinished && is_root && shared.corruption_planned) {
    try {
      while (shared.corruptions_unresolved.load(std::memory_order_acquire) > 0) {
        board->heartbeat(worker, incarnation);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      try {
        global.read(global_copy.span(), home_shard());
      } catch (const smb::SmbCorruption&) {
        integrity_rollback();
      }
    } catch (const smb::SmbError&) {
      // SMB gone, or the rollback found no writable replica: nothing left
      // to verify against.
    }
  }
  if (outcome == WorkerOutcome::kCrashed) return;  // fail-stop: nothing is released
  try {
    if (outcome == WorkerOutcome::kFinished) board->mark_finished(worker);
    if (is_root) delta_buffer.release();
    board->release();
    global.release();
  } catch (const smb::SmbError&) {
    // Releasing against a fail-stopped service: nothing left to clean up.
  }
}

}  // namespace

TrainResult train_shmcaffe(const DistTrainOptions& options) {
  if (options.workers < 1) throw std::invalid_argument("workers must be >= 1");
  if (options.group_size < 1 || options.workers % options.group_size != 0) {
    throw std::invalid_argument("group_size must divide workers");
  }
  if (options.update_interval < 1) {
    throw std::invalid_argument("update_interval must be >= 1");
  }

  if (options.smb_servers < 1) throw std::invalid_argument("smb_servers must be >= 1");
  if (options.smb_replicas < 1) throw std::invalid_argument("smb_replicas must be >= 1");
  if (options.recovery.respawn_crashed && options.group_size != 1) {
    // A replacement cannot rejoin a hybrid group mid-collective.
    throw std::invalid_argument("respawn_crashed requires group_size == 1");
  }
  const bool elastic_run =
      options.membership != nullptr || options.membership_policy.straggler_detection;
  if (elastic_run && options.group_size != 1) {
    // Elastic workers run pure SEASGD: a hybrid group cannot shrink or grow
    // mid-collective.
    throw std::invalid_argument("elastic membership requires group_size == 1");
  }
  if (options.membership != nullptr) {
    for (const elastic::MembershipEvent& event : options.membership->events()) {
      if (event.kind == elastic::MembershipEventKind::kJoin &&
          event.worker < options.workers) {
        // A cold join never reuses an initial rank's slot — that is the
        // recovery layer's re-admission path.
        throw std::invalid_argument("join slots must be >= the initial worker count");
      }
    }
  }
  const data::SynthImageDataset train_set(options.train_data);
  const data::SynthImageDataset test_set(options.test_data);

  // Physical server topology: smb_servers shards × smb_replicas replicas,
  // replica r of shard s at physical index s * smb_replicas + r.  Fault
  // plans target physical indices.  With replication each shard is wrapped
  // in a ReplicatedSmb ensemble; workers only ever see the per-shard
  // SmbService, so the Fig. 6 protocol is identical either way.
  const int physical_count = options.smb_servers * options.smb_replicas;
  smb::SmbServerOptions server_options;
  server_options.integrity.checksum_chunks = options.integrity.checksum_chunks;
  server_options.integrity.verify_on_read = options.integrity.verify_on_read;
  server_options.integrity.chunk_floats = options.integrity.chunk_floats;
  std::vector<std::unique_ptr<smb::SmbServer>> servers;
  for (int n = 0; n < physical_count; ++n) {
    servers.push_back(std::make_unique<smb::SmbServer>(server_options));
  }
  std::vector<std::unique_ptr<recovery::ReplicatedSmb>> ensembles;
  if (options.smb_replicas > 1) {
    for (int s = 0; s < options.smb_servers; ++s) {
      std::vector<smb::SmbServer*> members;
      for (int r = 0; r < options.smb_replicas; ++r) {
        members.push_back(servers[static_cast<std::size_t>(s * options.smb_replicas + r)].get());
      }
      ensembles.push_back(std::make_unique<recovery::ReplicatedSmb>(
          std::move(members), options.integrity.read_repair));
    }
  }
  minimpi::Context mpi(options.workers);
  std::vector<std::unique_ptr<coll::DeviceGroup>> groups;
  for (int g = 0; g < options.workers / options.group_size; ++g) {
    groups.push_back(std::make_unique<coll::DeviceGroup>(options.group_size));
  }

  WorkerShared shared;
  shared.options = &options;
  shared.train_set = &train_set;
  if (options.smb_replicas > 1) {
    for (const auto& ensemble : ensembles) {
      shared.services.push_back(ensemble.get());
      shared.ensembles.push_back(ensemble.get());
    }
  } else {
    for (const auto& server : servers) shared.services.push_back(server.get());
  }
  shared.mpi = &mpi;
  shared.groups = &groups;
  shared.base_key = (options.seed | 1) & 0x7fffffff;
  // Slot capacity: the initial ranks plus every reserved join slot.  A
  // reserved slot whose join never fires stays kNeverJoined.
  const int capacity = options.membership != nullptr
                           ? options.membership->capacity(options.workers)
                           : options.workers;
  shared.capacity = capacity;
  shared.final_iterations.assign(static_cast<std::size_t>(capacity), 0);
  shared.worker_stats.assign(static_cast<std::size_t>(capacity), WorkerStats{});
  shared.outcomes.assign(static_cast<std::size_t>(capacity), WorkerOutcome::kFinished);
  for (int w = options.workers; w < capacity; ++w) {
    shared.outcomes[static_cast<std::size_t>(w)] = WorkerOutcome::kNeverJoined;
  }
  std::optional<elastic::MembershipService> membership;
  if (elastic_run) {
    membership.emplace(options.workers, capacity, options.smb_servers);
    shared.membership = &*membership;
  }

  dl::Net eval_net = dl::make_model(options.model_family, options.input);

  // Checkpoint store + resume validation.  A checkpoint from a different
  // run (seed, worker count or model mismatch) is ignored, not an error —
  // the run simply starts fresh.
  std::optional<recovery::CheckpointStore> checkpoint_store;
  std::optional<recovery::TrainCheckpoint> resume_checkpoint;
  std::int64_t resumed_total = 0;
  if (!options.checkpoint.directory.empty()) {
    checkpoint_store.emplace(options.checkpoint.directory);
    shared.checkpoint_store = &*checkpoint_store;
    if (options.checkpoint.resume) {
      resume_checkpoint = checkpoint_store->load_latest();
      if (resume_checkpoint.has_value() &&
          (resume_checkpoint->seed != options.seed ||
           resume_checkpoint->worker_iterations.size() !=
               static_cast<std::size_t>(options.workers) ||
           resume_checkpoint->global_weights.size() != eval_net.param_count())) {
        resume_checkpoint.reset();
      }
      if (resume_checkpoint.has_value()) {
        shared.resume = &*resume_checkpoint;
        shared.checkpoint_sequence.store(resume_checkpoint->sequence,
                                         std::memory_order_relaxed);
        for (const std::int64_t done : resume_checkpoint->worker_iterations) {
          resumed_total += done;
        }
        shared.total_iterations.store(resumed_total, std::memory_order_relaxed);
      }
    }
  }

  const std::int64_t iters_per_epoch_total =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(train_set.size()) /
                                    options.batch_size);
  const std::int64_t per_worker_per_epoch =
      std::max<std::int64_t>(1, iters_per_epoch_total / options.workers);
  shared.target_iterations = per_worker_per_epoch * options.epochs;
  shared.lr_step_iterations =
      std::max<int>(1, static_cast<int>(per_worker_per_epoch) * 4);  // 4-epoch LR steps

  const auto wall_start = std::chrono::steady_clock::now();

  // Fault scheduler: fires SMB-server freeze windows, fail-stops and
  // segment corruptions at their wall-clock offsets from the training
  // start.  Finished group roots wait for every planned corruption (see
  // run_worker), so those always fire; a freeze or fail-stop not yet fired
  // when the workers are done never fires, so a short run does not wait
  // out the rest of the plan.
  std::mutex fault_mutex;
  std::condition_variable fault_cv;
  bool fault_stop = false;
  std::thread fault_thread;
  // The run's integrity ledger.  The fault thread records each corruption
  // that fires (chunks poisoned); the servers' and ensembles' markers join
  // it after the fault thread is joined.
  common::EventLedger<recovery::IntegrityAction> integrity_ledger;
  if (options.faults != nullptr) {
    std::vector<fault::FaultEvent> server_events;
    for (int n = 0; n < physical_count; ++n) {
      for (const fault::FaultEvent& event : options.faults->server_freezes(n)) {
        server_events.push_back(event);
      }
      for (const fault::FaultEvent& event : options.faults->server_fail_stops(n)) {
        server_events.push_back(event);
      }
      for (const fault::FaultEvent& event : options.faults->segment_corruptions(n)) {
        server_events.push_back(event);
        shared.corruptions_unresolved.fetch_add(1, std::memory_order_relaxed);
        shared.corruption_planned = true;
      }
      // Torn writes key on a write ordinal, not a wall-clock time: arm them
      // on their server up front, before any worker writes.
      for (const fault::FaultEvent& event : options.faults->torn_writes(n)) {
        servers[static_cast<std::size_t>(n)]->arm_torn_write(event.sequence, event.severity);
      }
    }
    std::sort(server_events.begin(), server_events.end(),
              [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                return a.start_seconds < b.start_seconds;
              });
    if (!server_events.empty()) {
      fault_thread = std::thread([&servers, &fault_mutex, &fault_cv, &fault_stop,
                                  &integrity_ledger,
                                  &global_initialised = shared.global_initialised,
                                  &unresolved = shared.corruptions_unresolved,
                                  base_key = shared.base_key,
                                  wall_start, server_events = std::move(server_events)] {
        std::unique_lock lock(fault_mutex);
        for (const fault::FaultEvent& event : server_events) {
          const auto at = wall_start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::duration<double>(event.start_seconds));
          if (fault_cv.wait_until(lock, at, [&] { return fault_stop; })) return;
          smb::SmbServer& target = *servers[static_cast<std::size_t>(event.target)];
          if (event.kind == fault::FaultKind::kServerFailStop) {
            target.fail_stop();
          } else if (event.kind == fault::FaultKind::kSegmentCorruption) {
            // W_g may not hold its initial weights yet (the master creates
            // and writes it a few ms into the run, and flips landing before
            // that write would be overwritten): wait until the master has
            // signalled, then flip once.  The segment stays until the
            // finished roots release it, which they do only after this
            // burst is resolved, so nothing poisoned means the target holds
            // no W_g shard and the burst never fires.
            bool ready = global_initialised.load(std::memory_order_acquire);
            while (!ready && !fault_cv.wait_for(lock, std::chrono::milliseconds(1),
                                                [&] { return fault_stop; })) {
              ready = global_initialised.load(std::memory_order_acquire);
            }
            if (ready) {
              try {
                if (target.corrupt_floats(base_key, event.sequence,
                                          std::max(1, static_cast<int>(event.severity))) >
                    0) {
                  integrity_ledger.record_key(recovery::IntegrityAction::kCorruptionInjected,
                                              static_cast<std::int64_t>(event.sequence));
                }
              } catch (const smb::SmbUnavailable&) {
                // the server fail-stopped first: never fires
              }
            }
            unresolved.fetch_sub(1, std::memory_order_release);
          } else {
            target.freeze_for(std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double>(event.duration_seconds)));
          }
        }
      });
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(options.workers));
  for (int w = 0; w < options.workers; ++w) {
    threads.emplace_back([&shared, w] { run_worker(shared, w); });
  }

  // Re-admission monitors: one per crash the recovery schedule says to
  // heal.  Each monitor exclusively owns its worker's join; once the first
  // life exits crashed and the survivors have fenced the slot, the monitor
  // runs the replacement life inline (re-attach, adopt W_g, readmit under a
  // new incarnation).  A fence it observes is final, even if the stop flag
  // went up in the same sweep (the replacement then leaves before its first
  // exchange); it gives up only if the run finishes with the slot unfenced.
  std::vector<char> owned_by_monitor(static_cast<std::size_t>(options.workers), 0);
  std::vector<char> recovered(static_cast<std::size_t>(options.workers), 0);
  std::vector<std::thread> monitors;
  if (options.recovery.respawn_crashed && options.faults != nullptr) {
    for (const recovery::RecoveryEvent& event :
         recovery::recovery_schedule(options.faults->plan(), options.recovery)) {
      if (event.action != recovery::RecoveryAction::kWorkerReadmit) continue;
      const int w = event.target;
      if (w < 0 || w >= options.workers || owned_by_monitor[static_cast<std::size_t>(w)]) {
        continue;
      }
      owned_by_monitor[static_cast<std::size_t>(w)] = 1;
      monitors.emplace_back([&shared, &threads, &recovered, &options, w] {
        threads[static_cast<std::size_t>(w)].join();
        if (shared.outcomes[static_cast<std::size_t>(w)] != WorkerOutcome::kCrashed) {
          return;  // the run stopped before the planned crash fired
        }
        using Clock = std::chrono::steady_clock;
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   std::max(1.0, options.heartbeat_timeout_seconds * 5.0)));
        bool fenced = false;
        try {
          ProgressBoard board(*shared.services.front(),
                              shared.base_key + kProgressKeyOffset, options.workers,
                              /*create=*/false);
          while (Clock::now() < deadline) {
            // Read the flag before the state: a stop raised after the fence
            // is then always seen together with it.
            const bool stopped = board.stop_raised();
            if (board.is_dead(w)) {
              fenced = true;
              break;
            }
            if (stopped) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          board.release();
        } catch (const smb::SmbError&) {
          return;  // the board is gone (run over / SMB lost): no respawn
        }
        if (!fenced) return;
        try {
          run_worker(shared, w, WorkerLife::kRejoin);
          recovered[static_cast<std::size_t>(w)] = 1;
        } catch (const smb::SmbError&) {
          // Re-attach raced the run's shutdown; the slot stays un-recovered.
        }
      });
    }
  }

  // Join monitors: one per planned cold join.  Each watches the progress
  // board until the cohort's max iteration count reaches the planned join
  // point, registers the join with the membership service (epoch bump +
  // shard rebalance), and runs the joining worker's life inline.  It gives
  // up if the run finishes first (the slot stays kNeverJoined).
  std::vector<char> joined_flag(static_cast<std::size_t>(capacity), 0);
  std::atomic<bool> workers_exited{false};
  std::vector<std::thread> join_monitors;
  if (options.membership != nullptr) {
    for (const elastic::MembershipEvent& event : options.membership->joins()) {
      const int w = event.worker;
      if (w < options.workers || w >= capacity) continue;
      join_monitors.emplace_back([&shared, &options, &joined_flag, &workers_exited, event,
                                  w] {
        bool go = false;
        try {
          smb::RetryPolicy retry;
          common::Rng backoff_rng(options.seed ^ 0x90149ULL ^
                                  static_cast<std::uint64_t>(w));
          int attempt = 0;
          std::optional<ProgressBoard> board;
          while (!workers_exited.load(std::memory_order_acquire)) {
            try {
              board.emplace(*shared.services.front(),
                            shared.base_key + kProgressKeyOffset, 0, /*create=*/false);
              break;
            } catch (const smb::SmbNotFound&) {
              std::this_thread::sleep_for(smb::backoff_delay(retry, ++attempt, backoff_rng));
            }
          }
          if (!board.has_value()) return;
          while (!workers_exited.load(std::memory_order_acquire)) {
            if (board->stop_raised()) break;
            if (board->max_iterations() >= event.at_iteration) {
              go = true;
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          board->release();
        } catch (const smb::SmbError&) {
          return;  // the board is gone (run over / SMB lost): no join
        }
        if (!go) return;
        shared.membership->join(w, event.at_iteration);
        try {
          run_worker(shared, w, WorkerLife::kColdJoin);
          joined_flag[static_cast<std::size_t>(w)] = 1;
        } catch (const smb::SmbError&) {
          // The join raced the run's shutdown; the slot never trained.
        }
      });
    }
  }

  std::atomic<bool> joined{false};
  std::thread joiner([&threads, &monitors, &join_monitors, &owned_by_monitor,
                      &workers_exited, &joined] {
    for (std::size_t w = 0; w < threads.size(); ++w) {
      if (!owned_by_monitor[w]) threads[w].join();
    }
    for (std::thread& monitor : monitors) monitor.join();
    // The initial cohort is gone: tell waiting join monitors to stand down
    // (one whose join already fired keeps running its worker to completion).
    workers_exited.store(true, std::memory_order_release);
    for (std::thread& monitor : join_monitors) monitor.join();
    joined.store(true, std::memory_order_release);
  });

  // Orchestrator: snapshot and evaluate the global weights at
  // epoch-equivalent boundaries (total iterations across all workers).
  // The attach races worker 0's segment creation, so it retries with
  // backoff; it gives up once the workers are gone (a fault plan may have
  // crashed every worker before the segments appeared).
  TrainResult result;
  ShardedBuffer global;
  try {
    smb::RetryPolicy policy;
    common::Rng backoff_rng(options.seed ^ 0x0bcull);
    int attempt = 0;
    while (!joined.load(std::memory_order_acquire)) {
      try {
        global = ShardedBuffer::attach(shared.services, shared.base_key,
                                       eval_net.param_count());
        break;
      } catch (const smb::SmbNotFound&) {
        std::this_thread::sleep_for(smb::backoff_delay(policy, ++attempt, backoff_rng));
      }
    }
    if (!global.valid()) {
      try {
        global = ShardedBuffer::attach(shared.services, shared.base_key,
                                       eval_net.param_count());
      } catch (const smb::SmbNotFound&) {
        // every worker crashed before creating the segments; no curve
      }
    }
  } catch (const smb::SmbUnavailable&) {
    // the SMB (all replicas) fail-stopped before the attach landed; no curve
  }
  std::vector<float> snapshot(global.valid() ? global.size() : 0);

  const std::int64_t total_target =
      shared.target_iterations * static_cast<std::int64_t>(options.workers);
  const std::int64_t per_epoch_total =
      std::max<std::int64_t>(1, total_target / options.epochs);
  // A resumed run's curve continues after the epochs the interrupted run
  // already covered.
  int next_epoch = 1 + static_cast<int>(resumed_total / per_epoch_total);
  auto catch_up_evals = [&] {
    if (!global.valid()) return;
    const std::int64_t done = shared.total_iterations.load(std::memory_order_relaxed);
    while (next_epoch < options.epochs &&
           done >= static_cast<std::int64_t>(next_epoch) * per_epoch_total) {
      try {
        global.read(snapshot);
      } catch (const smb::SmbUnavailable&) {
        return;  // SMB permanently gone mid-run; keep the curve so far
      } catch (const smb::SmbCorruption&) {
        // W_g read between a corruption burst and the worker exchange that
        // repairs or rolls it back: skip this poll and read it again later.
        return;
      }
      dl::copy_params_from(eval_net, snapshot);
      const EvalResult eval = evaluate(eval_net, test_set);
      result.curve.push_back(EpochMetrics{next_epoch, eval.loss, eval.accuracy});
      ++next_epoch;
    }
  };
  while (!joined.load(std::memory_order_acquire)) {
    catch_up_evals();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  joiner.join();
  catch_up_evals();

  // Stop the fault scheduler before scrubbing: every corruption that will
  // fire has now fired, so the final scrub below sees all of them.
  if (fault_thread.joinable()) {
    {
      std::scoped_lock lock(fault_mutex);
      fault_stop = true;
    }
    fault_cv.notify_all();
    fault_thread.join();
  }

  // End-of-training scrub: catch (and repair) corruption injected after the
  // last exchange, while the orchestrator still holds the segments and
  // before the final weights are evaluated.
  if (options.integrity.enabled() && options.integrity.scrub_on_checkpoint) {
    for (const auto& ensemble : ensembles) {
      try {
        ensemble->scrub();
      } catch (const smb::SmbError&) {
        // every replica gone: nothing left to scrub
      }
    }
  }

  if (global.valid()) {
    try {
      global.read(snapshot);
      dl::copy_params_from(eval_net, snapshot);
      const EvalResult final_eval = evaluate(eval_net, test_set);
      result.final_accuracy = final_eval.accuracy;
      result.final_loss = final_eval.loss;
      if (result.curve.empty() || result.curve.back().epoch < options.epochs) {
        result.curve.push_back(
            EpochMetrics{options.epochs, final_eval.loss, final_eval.accuracy});
      }
      global.release();
    } catch (const smb::SmbError&) {
      // SMB permanently gone: no final evaluation, nothing to release
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  result.iterations_per_worker = shared.final_iterations;
  result.worker_stats = std::move(shared.worker_stats);
  result.worker_outcomes = shared.outcomes;
  for (int w = 0; w < capacity; ++w) {
    const WorkerOutcome outcome = shared.outcomes[static_cast<std::size_t>(w)];
    if (outcome == WorkerOutcome::kCrashed || outcome == WorkerOutcome::kFenced ||
        outcome == WorkerOutcome::kEvicted) {
      result.dead_workers.push_back(w);
    }
    if (w < options.workers && recovered[static_cast<std::size_t>(w)]) {
      result.recovered_workers.push_back(w);
    }
  }
  if (membership.has_value()) {
    fill_membership_outcome(
        result, *membership,
        elastic::membership_schedule(
            options.membership, options.faults != nullptr ? &options.faults->plan() : nullptr,
            options.membership_policy, options.workers));
  }
  result.checkpoints_taken = shared.checkpoints_taken.load(std::memory_order_relaxed);
  result.resumed_iterations = resumed_total;
  std::vector<std::vector<int>> failover_logs;
  for (const auto& ensemble : ensembles) {
    result.smb_failovers += static_cast<std::int64_t>(ensemble->failover_count());
    failover_logs.push_back(ensemble->failover_log());
  }

  // Integrity observability: the markers each physical server detected and
  // tore, the markers each ensemble repaired, repair and scrub counts from
  // the ensembles, rollbacks from the workers.
  using recovery::IntegrityAction;
  for (const auto& server : servers) {
    for (const std::uint64_t marker : server->detected_markers()) {
      integrity_ledger.record_key(IntegrityAction::kCorruptionDetected,
                                  static_cast<std::int64_t>(marker));
    }
    for (const std::uint64_t marker : server->torn_applied_markers()) {
      integrity_ledger.record_key(IntegrityAction::kTornWriteApplied,
                                  static_cast<std::int64_t>(marker));
    }
  }
  for (const auto& ensemble : ensembles) {
    result.integrity_repairs += static_cast<std::int64_t>(ensemble->repairs());
    result.scrub_passes += static_cast<std::int64_t>(ensemble->scrub_passes());
    for (const std::uint64_t marker : ensemble->repaired_markers()) {
      integrity_ledger.record_key(IntegrityAction::kCorruptionRepaired,
                                  static_cast<std::int64_t>(marker));
    }
  }
  result.corruptions_detected =
      static_cast<std::int64_t>(integrity_ledger.count(IntegrityAction::kCorruptionDetected));
  result.integrity_rollbacks = shared.integrity_rollbacks.load(std::memory_order_relaxed);

  // The recovery and integrity actions actually executed, in planned order:
  // a failover counts only if the fail-stopped replica really was the
  // active one at the time, a readmit only if the replacement ran.  The sim
  // twin filters the same schedules by its own observations, so equal lists
  // mean identical recovery and integrity histories across the stacks.
  if (options.faults != nullptr) {
    result.recovery_events =
        recovery::executed_recovery(options.faults->plan(), options.recovery, failover_logs,
                                    options.smb_replicas, result.recovered_workers);
    result.integrity_events = common::executed_events(
        recovery::integrity_schedule(options.faults->plan(), options.integrity),
        integrity_ledger);
  }
  return result;
}

}  // namespace shmcaffe::core
