// Tests for the recovery layer: the replicated SMB ensemble (mirroring,
// failover, epoch fencing, idempotent tagged replay), crash-consistent
// double-buffered checkpoints, the shared recovery schedule, progress-board
// re-admission, and the end-to-end acceptance runs — training survives a
// primary SMB fail-stop plus a worker crash with an identical executed
// recovery list in the functional and simulated stacks, and a checkpoint
// resume reproduces the uninterrupted run's result exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/progress_board.h"
#include "core/sim_shmcaffe.h"
#include "core/trainer.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "recovery/checkpoint.h"
#include "recovery/replicated_smb.h"
#include "recovery/schedule.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using recovery::CheckpointStore;
using recovery::RecoveryPolicy;
using recovery::ReplicatedSmb;
using recovery::TrainCheckpoint;

// --- ReplicatedSmb: mirroring --------------------------------------------

TEST(ReplicatedSmb, MirrorsMutationsToAllReplicas) {
  smb::SmbServer a;
  smb::SmbServer b;
  ReplicatedSmb ensemble({&a, &b});
  const smb::Handle g = ensemble.create_floats(7, 4);
  ensemble.write(g, std::vector<float>{1, 2, 3, 4});

  // The physical segments on both replicas hold identical bits.
  for (smb::SmbServer* replica : {&a, &b}) {
    const smb::Handle ph = replica->attach_floats(7);
    std::vector<float> seen(4);
    replica->read(ph, seen);
    EXPECT_EQ(seen, (std::vector<float>{1, 2, 3, 4}));
    replica->release(ph);
  }
  ensemble.release(g);
}

TEST(ReplicatedSmb, AccumulateStaysBitIdenticalAcrossReplicas) {
  smb::SmbServer a;
  smb::SmbServer b;
  ReplicatedSmb ensemble({&a, &b});
  const smb::Handle src = ensemble.create_floats(1, 3);
  const smb::Handle dst = ensemble.create_floats(2, 3);
  ensemble.write(src, std::vector<float>{0.5f, -1.0f, 2.0f});
  ensemble.write(dst, std::vector<float>{1.0f, 1.0f, 1.0f});
  ensemble.accumulate(src, dst);

  std::vector<float> on_a(3);
  std::vector<float> on_b(3);
  const smb::Handle pa = a.attach_floats(2);
  const smb::Handle pb = b.attach_floats(2);
  a.read(pa, on_a);
  b.read(pb, on_b);
  EXPECT_EQ(on_a, on_b);
  EXPECT_EQ(on_a, (std::vector<float>{1.5f, 0.0f, 3.0f}));
  a.release(pa);
  b.release(pb);
}

// --- ReplicatedSmb: failover ---------------------------------------------

TEST(ReplicatedSmb, PrimaryFailStopPromotesBackupTransparently) {
  smb::SmbServer a;
  smb::SmbServer b;
  ReplicatedSmb ensemble({&a, &b});
  const smb::Handle g = ensemble.create_floats(9, 2);
  ensemble.write(g, std::vector<float>{3, 4});
  EXPECT_EQ(ensemble.active_replica(), 0);
  EXPECT_EQ(ensemble.service_epoch(), recovery::kInitialServiceEpoch);

  a.fail_stop();

  // The logical handle keeps working: the read discovers the fail-stop,
  // promotes the backup and retries there.
  std::vector<float> seen(2);
  ensemble.read(g, seen);
  EXPECT_EQ(seen, (std::vector<float>{3, 4}));
  EXPECT_EQ(ensemble.active_replica(), 1);
  EXPECT_EQ(ensemble.live_replica_count(), 1);
  EXPECT_EQ(ensemble.failover_count(), 1u);
  EXPECT_EQ(ensemble.failover_log(), std::vector<int>{0});
  // Every failover bumps the service epoch (fencing).
  EXPECT_GT(ensemble.service_epoch(), recovery::kInitialServiceEpoch);

  // Mutations continue on the survivor.
  ensemble.write(g, std::vector<float>{5, 6});
  ensemble.read(g, seen);
  EXPECT_EQ(seen, (std::vector<float>{5, 6}));
  ensemble.release(g);
}

TEST(ReplicatedSmb, BackupDeathIsNotAFailover) {
  smb::SmbServer a;
  smb::SmbServer b;
  ReplicatedSmb ensemble({&a, &b});
  const smb::Handle g = ensemble.create_floats(3, 2);
  b.fail_stop();
  // The next mutation discovers the dead backup and drops it from the
  // fan-out; the primary never changes, so no failover is recorded.
  ensemble.write(g, std::vector<float>{1, 2});
  std::vector<float> seen(2);
  ensemble.read(g, seen);
  EXPECT_EQ(seen, (std::vector<float>{1, 2}));
  EXPECT_EQ(ensemble.active_replica(), 0);
  EXPECT_EQ(ensemble.failover_count(), 0u);
  EXPECT_TRUE(ensemble.failover_log().empty());
  ensemble.release(g);
}

TEST(ReplicatedSmb, AllReplicasDeadThrowsUnavailable) {
  smb::SmbServer a;
  smb::SmbServer b;
  ReplicatedSmb ensemble({&a, &b});
  const smb::Handle g = ensemble.create_floats(5, 2);
  a.fail_stop();
  b.fail_stop();
  EXPECT_THROW(ensemble.write(g, std::vector<float>{1, 2}), smb::SmbUnavailable);
}

TEST(ReplicatedSmb, AccumulateAppliesExactlyOnceAcrossFailover) {
  smb::SmbServer a;
  smb::SmbServer b;
  ReplicatedSmb ensemble({&a, &b});
  const smb::Handle src = ensemble.create_floats(1, 2);
  const smb::Handle dst = ensemble.create_floats(2, 2);
  ensemble.write(src, std::vector<float>{1, 2});
  ensemble.write(dst, std::vector<float>{10, 20});

  a.fail_stop();
  // The fan-out hits the dead primary, fails over, and replays the op under
  // the same tag on the survivor — applied exactly once.
  ensemble.accumulate(src, dst);
  std::vector<float> seen(2);
  ensemble.read(dst, seen);
  EXPECT_EQ(seen, (std::vector<float>{11, 22}));
}

TEST(ReplicatedSmb, CountersSurviveFailover) {
  smb::SmbServer a;
  smb::SmbServer b;
  ReplicatedSmb ensemble({&a, &b});
  const smb::Handle c = ensemble.create_counters(11, 4);
  ensemble.store(c, 0, 5);
  EXPECT_EQ(ensemble.fetch_add(c, 0, 2), 5);
  a.fail_stop();
  EXPECT_EQ(ensemble.load(c, 0), 7);
  EXPECT_EQ(ensemble.fetch_add(c, 0, 1), 7);
  EXPECT_EQ(ensemble.load(c, 0), 8);
  ensemble.release(c);
}

TEST(SmbServer, TaggedReplayIsDroppedNotReapplied) {
  smb::SmbServer server;
  const smb::Handle src = server.create_floats(1, 2);
  const smb::Handle dst = server.create_floats(2, 2);
  server.write(src, std::vector<float>{1, 1});
  server.write(dst, std::vector<float>{0, 0});

  const smb::OpTag tag{/*writer=*/3, /*sequence=*/7};
  server.accumulate_tagged(src, dst, tag);
  server.accumulate_tagged(src, dst, tag);  // replay of the same op: dropped
  std::vector<float> seen(2);
  server.read(dst, seen);
  EXPECT_EQ(seen, (std::vector<float>{1, 1}));
  EXPECT_EQ(server.stats().replays_dropped, 1u);
  server.release(src);
  server.release(dst);
}

// --- checkpoints: encode/decode ------------------------------------------

TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint c;
  c.sequence = 3;
  c.seed = 0x5eedc0de;
  c.owner_solver_iteration = 42;
  c.worker_iterations = {40, 41, 39, 40};
  c.global_weights = {0.5f, -1.25f, 3.0f};
  c.owner_params = {0.25f, -0.5f, 1.0f};
  c.owner_momentum = {0.0f, 0.125f, -0.75f};
  return c;
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const TrainCheckpoint original = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = recovery::encode_checkpoint(original);
  const std::optional<TrainCheckpoint> decoded = recovery::decode_checkpoint(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(Checkpoint, DecodeRejectsEveryTruncation) {
  const std::vector<std::uint8_t> bytes =
      recovery::encode_checkpoint(sample_checkpoint());
  // A torn write can stop at any byte: every proper prefix must be rejected
  // (the trailing checksum never validates against a cut payload).
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::span<const std::uint8_t> prefix(bytes.data(), length);
    EXPECT_FALSE(recovery::decode_checkpoint(prefix).has_value())
        << "prefix length " << length;
  }
}

TEST(Checkpoint, DecodeRejectsBitRotAndTrailingBytes) {
  std::vector<std::uint8_t> bytes = recovery::encode_checkpoint(sample_checkpoint());
  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(recovery::decode_checkpoint(flipped).has_value());
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(recovery::decode_checkpoint(padded).has_value());
}

// --- checkpoints: double-buffered store ----------------------------------

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shmcaffe_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Truncates the slot file currently holding `sequence` to half its size
/// (simulating a write torn by a crash).
void tear_slot_holding(const CheckpointStore& store, std::uint64_t sequence) {
  for (int slot = 0; slot < 2; ++slot) {
    const std::string& path = store.slot_path(slot);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) continue;
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<std::uint8_t> data(size);
    in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(size));
    const std::optional<TrainCheckpoint> decoded = recovery::decode_checkpoint(data);
    if (!decoded.has_value() || decoded->sequence != sequence) continue;
    std::filesystem::resize_file(path, size / 2);
    return;
  }
  FAIL() << "no slot holds sequence " << sequence;
}

TEST(CheckpointStore, AlternatesSlotsAndLoadsLatest) {
  const CheckpointStore store(fresh_dir("alternate"));
  TrainCheckpoint c = sample_checkpoint();
  for (std::uint64_t sequence : {1u, 2u, 3u}) {
    c.sequence = sequence;
    c.owner_solver_iteration = static_cast<std::int64_t>(sequence * 10);
    store.save(c);
    const std::optional<TrainCheckpoint> latest = store.load_latest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->sequence, sequence);
  }
  // After three saves both slot files exist: 3 overwrote the slot of 1 while
  // the slot of 2 stayed intact.
  EXPECT_TRUE(std::filesystem::exists(store.slot_path(0)));
  EXPECT_TRUE(std::filesystem::exists(store.slot_path(1)));
}

TEST(CheckpointStore, TornLatestFallsBackToPreviousSlot) {
  const CheckpointStore store(fresh_dir("torn"));
  TrainCheckpoint c = sample_checkpoint();
  c.sequence = 1;
  store.save(c);
  c.sequence = 2;
  c.owner_solver_iteration = 99;
  store.save(c);

  tear_slot_holding(store, 2);
  const std::optional<TrainCheckpoint> latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->sequence, 1u);
}

TEST(CheckpointStore, EmptyDirectoryLoadsNothing) {
  const CheckpointStore store(fresh_dir("empty"));
  EXPECT_FALSE(store.load_latest().has_value());
}

// --- recovery schedule ----------------------------------------------------

FaultPlan recovery_plan() {
  FaultPlan plan;
  FaultEvent fail0;
  fail0.kind = FaultKind::kServerFailStop;
  fail0.target = 0;
  fail0.start_seconds = 0.10;
  plan.add(fail0);
  FaultEvent fail3;
  fail3.kind = FaultKind::kServerFailStop;
  fail3.target = 3;
  fail3.start_seconds = 0.05;
  plan.add(fail3);
  FaultEvent crash2;
  crash2.kind = FaultKind::kWorkerCrash;
  crash2.target = 2;
  crash2.iteration = 3;
  plan.add(crash2);
  FaultEvent crash1;
  crash1.kind = FaultKind::kWorkerCrash;
  crash1.target = 1;
  crash1.iteration = 9;
  plan.add(crash1);
  FaultEvent crash2_again;  // a worker dies once: the later crash is ignored
  crash2_again.kind = FaultKind::kWorkerCrash;
  crash2_again.target = 2;
  crash2_again.iteration = 12;
  plan.add(crash2_again);
  return plan;
}

TEST(RecoverySchedule, OrdersFailoversThenReadmitsDeterministically) {
  RecoveryPolicy policy;
  policy.respawn_crashed = true;
  const std::vector<recovery::RecoveryEvent> events =
      recovery_schedule(recovery_plan(), policy);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].action, recovery::RecoveryAction::kSmbFailover);
  EXPECT_EQ(events[0].target, 3);  // earliest fail-stop first
  EXPECT_EQ(events[1].action, recovery::RecoveryAction::kSmbFailover);
  EXPECT_EQ(events[1].target, 0);
  EXPECT_EQ(events[2].action, recovery::RecoveryAction::kWorkerReadmit);
  EXPECT_EQ(events[2].target, 2);
  EXPECT_EQ(events[2].key, 3);
  EXPECT_EQ(events[3].action, recovery::RecoveryAction::kWorkerReadmit);
  EXPECT_EQ(events[3].target, 1);
  EXPECT_EQ(events[3].key, 9);

  // Same inputs, same schedule, same fingerprint — every time.
  const std::vector<recovery::RecoveryEvent> again =
      recovery_schedule(recovery_plan(), policy);
  EXPECT_EQ(events, again);
  EXPECT_EQ(common::fingerprint(events), common::fingerprint(again));
  EXPECT_NE(common::fingerprint(events), 0u);
}

TEST(RecoverySchedule, PolicyGatesActions) {
  RecoveryPolicy failover_only;
  failover_only.respawn_crashed = false;
  const auto failovers = recovery_schedule(recovery_plan(), failover_only);
  ASSERT_EQ(failovers.size(), 2u);
  for (const recovery::RecoveryEvent& event : failovers) {
    EXPECT_EQ(event.action, recovery::RecoveryAction::kSmbFailover);
  }

  RecoveryPolicy nothing;
  nothing.smb_failover = false;
  nothing.respawn_crashed = false;
  EXPECT_TRUE(recovery_schedule(recovery_plan(), nothing).empty());

  RecoveryPolicy everything;
  everything.respawn_crashed = true;
  EXPECT_NE(common::fingerprint(recovery_schedule(recovery_plan(), everything)),
            common::fingerprint(failovers));
}

TEST(RecoverySchedule, DescribeMentionsEveryEvent) {
  RecoveryPolicy policy;
  policy.respawn_crashed = true;
  const auto events = recovery_schedule(recovery_plan(), policy);
  const std::string text = common::describe(events);
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            events.size());
}

// --- the shared executed-recovery filter ----------------------------------

FaultEvent fail_stop(int target, double at) {
  FaultEvent event;
  event.kind = FaultKind::kServerFailStop;
  event.target = target;
  event.start_seconds = at;
  return event;
}

TEST(ExecutedRecovery, FailoverCountsOncePerLoggedReplica) {
  // Replica 0 of shard 0 fail-stops twice in the plan but the ensemble's log
  // names it once: the second planned failover is dropped.  Replica 1 never
  // failed while active, so its planned failover is dropped too.
  const FaultPlan plan({fail_stop(0, 0.1), fail_stop(1, 0.2), fail_stop(0, 0.3)});
  const std::vector<std::vector<int>> logs{{0}};
  const auto executed = recovery::executed_recovery(plan, RecoveryPolicy{}, logs, 2, {});
  const std::vector<recovery::RecoveryEvent> expected{
      {recovery::RecoveryAction::kSmbFailover, 0, -1}};
  EXPECT_EQ(common::first_divergence(executed, expected), "");
}

TEST(ExecutedRecovery, OutOfRangeShardIsSkipped) {
  // Target 5 with two replicas is shard 2; the run has logs for shards 0
  // and 1 only, so that failover can never have executed.
  const FaultPlan plan({fail_stop(5, 0.1), fail_stop(2, 0.2)});
  const std::vector<std::vector<int>> logs{{}, {0}};
  const auto executed = recovery::executed_recovery(plan, RecoveryPolicy{}, logs, 2, {});
  const std::vector<recovery::RecoveryEvent> expected{
      {recovery::RecoveryAction::kSmbFailover, 2, -1}};
  EXPECT_EQ(common::first_divergence(executed, expected), "");
}

TEST(ExecutedRecovery, ReadmitCountsOnlyForARecoveredTarget) {
  FaultPlan plan;
  for (const auto& [worker, iteration] : {std::pair{1, 5}, std::pair{3, 7}}) {
    FaultEvent crash;
    crash.kind = FaultKind::kWorkerCrash;
    crash.target = worker;
    crash.iteration = iteration;
    plan.add(crash);
  }
  RecoveryPolicy policy;
  policy.respawn_crashed = true;
  const std::vector<int> recovered{3};
  const auto executed = recovery::executed_recovery(plan, policy, {}, 2, recovered);
  const std::vector<recovery::RecoveryEvent> expected{
      {recovery::RecoveryAction::kWorkerReadmit, 3, 7}};
  EXPECT_EQ(common::first_divergence(executed, expected), "");
}

TEST(RunEventLists, FirstDivergenceNamesTheIndexAndBothEvents) {
  using recovery::RecoveryAction;
  const std::vector<recovery::RecoveryEvent> a{{RecoveryAction::kSmbFailover, 0, -1},
                                               {RecoveryAction::kSmbFailover, 3, -1},
                                               {RecoveryAction::kWorkerReadmit, 2, 4}};
  std::vector<recovery::RecoveryEvent> b = a;
  b[2].key = 9;
  EXPECT_EQ(common::first_divergence(a, a), "");
  EXPECT_EQ(common::first_divergence(a, b),
            "first divergence at event 2: worker_readmit target=2 key=4 vs "
            "worker_readmit target=2 key=9");
  // A strict prefix diverges where the shorter list ends.
  const std::vector<recovery::RecoveryEvent> prefix(a.begin(), a.begin() + 1);
  EXPECT_EQ(common::first_divergence(prefix, a),
            "first divergence at event 1: end of list vs smb_failover target=3 key=-1");
  // An untracked family differs from a tracked one, even an empty one.
  const cluster::ExecutedEvents<RecoveryAction> untracked;
  const cluster::ExecutedEvents<RecoveryAction> empty{std::vector<recovery::RecoveryEvent>{}};
  EXPECT_EQ(common::first_divergence(untracked, untracked), "");
  EXPECT_NE(common::first_divergence(untracked, empty), "");
}

// --- progress-board re-admission -----------------------------------------

TEST(ProgressBoardReadmit, NewIncarnationFencesThePreviousLife) {
  smb::SmbServer server;
  core::ProgressBoard board(server, 31, 3, /*create=*/true);
  board.report(2, 50, core::ProgressBoard::kFirstIncarnation);
  board.mark_dead(2);
  EXPECT_EQ(board.incarnation_of(2), core::ProgressBoard::kFirstIncarnation);

  const std::int64_t incarnation = board.readmit(2);
  EXPECT_EQ(incarnation, core::ProgressBoard::kFirstIncarnation + 1);
  EXPECT_EQ(board.state_of(2), core::ProgressBoard::WorkerState::kAlive);
  EXPECT_EQ(board.iterations_of(2), 0);  // the slot restarts from zero

  // A report stamped with the dead life's incarnation is dropped; the new
  // life's reports land.
  board.report(2, 999, core::ProgressBoard::kFirstIncarnation);
  EXPECT_EQ(board.iterations_of(2), 0);
  board.report(2, 4, incarnation);
  EXPECT_EQ(board.iterations_of(2), 4);
  board.release();
}

// --- end-to-end: failover + re-admission ----------------------------------

core::DistTrainOptions recovery_train_options() {
  core::DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 4;
  options.group_size = 1;
  options.input = dl::ModelInputSpec{1, 12, 12, 6};
  options.train_data.channels = 1;
  options.train_data.height = 12;
  options.train_data.width = 12;
  options.train_data.classes = 6;
  options.train_data.size = 1536;
  options.train_data.noise_stddev = 0.25;
  options.test_data = options.train_data;
  options.test_data.size = 384;
  options.test_data.seed = 0x7e57;
  options.batch_size = 16;
  options.epochs = 4;
  options.heartbeat_timeout_seconds = 0.5;
  return options;
}

TEST(RecoveryEndToEnd, TrainingSurvivesPrimaryFailStopAndWorkerCrash) {
  // The acceptance run: kill the primary SMB replica mid-run AND crash one
  // worker; with failover + re-admission on, training must complete, the
  // crashed slot must rejoin, and accuracy must stay near the fault-free run.
  FaultPlan plan;
  FaultEvent fail_primary;
  fail_primary.kind = FaultKind::kServerFailStop;
  fail_primary.target = 0;  // shard 0, replica 0 — the active primary
  fail_primary.start_seconds = 0.05;
  plan.add(fail_primary);
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 2;
  crash.iteration = 3;
  plan.add(crash);
  const FaultInjector injector(plan);

  core::DistTrainOptions options = recovery_train_options();
  options.smb_replicas = 2;
  options.recovery.respawn_crashed = true;
  // Fence the crashed worker quickly: with the default timeout the mean-
  // iterations criterion can fire (survivors over-running the target) before
  // the sweep ever declares the crash, and no re-admission would happen.
  options.heartbeat_timeout_seconds = 0.15;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  // The run completed: every slot finished (worker 2 under a new life).
  EXPECT_EQ(result.smb_failovers, 1);
  EXPECT_EQ(result.recovered_workers, std::vector<int>{2});
  ASSERT_EQ(result.worker_outcomes.size(), 4u);
  for (int w : {0, 1, 3}) {
    EXPECT_EQ(result.worker_outcomes[static_cast<std::size_t>(w)],
              core::WorkerOutcome::kFinished)
        << "worker " << w;
  }

  // Accuracy within tolerance of the fault-free run.
  core::DistTrainOptions clean = recovery_train_options();
  const core::TrainResult baseline = core::train_shmcaffe(clean);
  EXPECT_GT(result.final_accuracy, 0.5);
  EXPECT_NEAR(result.final_accuracy, baseline.final_accuracy, 0.25);

  // The executed recovery actions are exactly the planned schedule.
  RecoveryPolicy policy = options.recovery;
  const auto planned = recovery_schedule(plan, policy);
  ASSERT_TRUE(result.recovery_events.has_value());
  EXPECT_EQ(common::first_divergence(*result.recovery_events, planned), "");

  // The sim twin derives the identical recovery schedule from the same plan.
  core::SimShmCaffeOptions sim;
  sim.workers = 4;
  sim.group_size = 1;
  sim.iterations = 96;
  sim.smb_servers = 1;
  sim.smb_replicas = 2;
  sim.recovery = policy;
  sim.faults = &injector;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  EXPECT_EQ(common::first_divergence(timing.recovery_events, result.recovery_events), "");
  EXPECT_EQ(timing.recovered_workers, result.recovered_workers);
  EXPECT_EQ(timing.smb_failovers, result.smb_failovers);
}

TEST(RecoveryEndToEnd, SimModelsFailoverPauseAndReadmitDelay) {
  FaultPlan plan;
  FaultEvent fail_primary;
  fail_primary.kind = FaultKind::kServerFailStop;
  fail_primary.target = 0;
  fail_primary.start_seconds = 0.5;
  plan.add(fail_primary);
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 1;
  crash.iteration = 5;
  plan.add(crash);
  const FaultInjector injector(plan);

  core::SimShmCaffeOptions base;
  base.workers = 4;
  base.group_size = 1;
  base.iterations = 40;
  base.smb_replicas = 2;
  base.recovery.respawn_crashed = true;
  const cluster::PlatformTiming clean = core::simulate_shmcaffe(base);

  core::SimShmCaffeOptions faulted = base;
  faulted.faults = &injector;
  const cluster::PlatformTiming recovered = core::simulate_shmcaffe(faulted);

  // Recovery is modelled, not free: the faulted run pays the failover pause
  // and the re-admission delay, completes every worker iteration, and both
  // runs are deterministic.
  EXPECT_GT(recovered.makespan, clean.makespan);
  EXPECT_EQ(recovered.completed_worker_iterations, clean.completed_worker_iterations);
  EXPECT_EQ(recovered.recovered_workers, std::vector<int>{1});
  EXPECT_EQ(recovered.smb_failovers, 1);
  const cluster::PlatformTiming again = core::simulate_shmcaffe(faulted);
  EXPECT_EQ(again.makespan, recovered.makespan);
  EXPECT_EQ(common::first_divergence(again.recovery_events, recovered.recovery_events), "");
}

// --- end-to-end: checkpoint / resume -------------------------------------

core::DistTrainOptions checkpoint_train_options(const std::string& directory) {
  core::DistTrainOptions options = recovery_train_options();
  options.workers = 1;
  options.epochs = 3;
  options.train_data.size = 1024;
  options.checkpoint.directory = directory;
  options.checkpoint.interval_iterations = 20;
  return options;
}

TEST(RecoveryEndToEnd, ResumeReproducesTheUninterruptedRunExactly) {
  // Reference: a single-worker run to completion (the single-worker mlp path
  // is fully deterministic — seeded RNG, serialized exchange, no dropout).
  const std::string reference_dir = fresh_dir("ckpt_reference");
  const core::TrainResult uninterrupted =
      core::train_shmcaffe(checkpoint_train_options(reference_dir));
  ASSERT_GT(uninterrupted.checkpoints_taken, 0);

  // The same run, killed at iteration 50: checkpoints at 20 and 40 exist.
  const std::string resumed_dir = fresh_dir("ckpt_resumed");
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 0;
  crash.iteration = 50;
  plan.add(crash);
  const FaultInjector injector(plan);
  core::DistTrainOptions interrupted = checkpoint_train_options(resumed_dir);
  interrupted.faults = &injector;
  const core::TrainResult killed = core::train_shmcaffe(interrupted);
  EXPECT_EQ(killed.worker_outcomes[0], core::WorkerOutcome::kCrashed);
  EXPECT_GE(killed.checkpoints_taken, 2);

  // Resume from the latest checkpoint and finish.
  core::DistTrainOptions resume = checkpoint_train_options(resumed_dir);
  resume.checkpoint.resume = true;
  const core::TrainResult resumed = core::train_shmcaffe(resume);
  EXPECT_EQ(resumed.resumed_iterations, 40);
  EXPECT_EQ(resumed.worker_outcomes[0], core::WorkerOutcome::kFinished);

  // The restart equals the uninterrupted run: the checkpoint captured W_g,
  // the owner's parameters, momentum, solver cursor and the data cursor, so
  // the final weights — and therefore the final evaluation — are identical
  // bit for bit.
  EXPECT_EQ(resumed.final_accuracy, uninterrupted.final_accuracy);
  EXPECT_EQ(resumed.final_loss, uninterrupted.final_loss);

  // The curve tail lands on the same epochs with comparable accuracy (epoch
  // evaluations sample W_g concurrently with training, so they are close,
  // not bit-identical).
  ASSERT_FALSE(resumed.curve.empty());
  for (const core::EpochMetrics& point : resumed.curve) {
    bool matched = false;
    for (const core::EpochMetrics& ref : uninterrupted.curve) {
      if (ref.epoch != point.epoch) continue;
      matched = true;
      EXPECT_NEAR(point.test_accuracy, ref.test_accuracy, 0.35) << "epoch " << point.epoch;
    }
    EXPECT_TRUE(matched) << "epoch " << point.epoch << " missing from the reference run";
  }
}

TEST(RecoveryEndToEnd, MismatchedCheckpointIsIgnored) {
  // A checkpoint from a different run (different seed) must not be adopted.
  const std::string dir = fresh_dir("ckpt_mismatch");
  core::DistTrainOptions first = checkpoint_train_options(dir);
  (void)core::train_shmcaffe(first);

  core::DistTrainOptions other = checkpoint_train_options(dir);
  other.seed = first.seed + 1;
  other.checkpoint.resume = true;
  const core::TrainResult result = core::train_shmcaffe(other);
  EXPECT_EQ(result.resumed_iterations, 0);  // started fresh
  EXPECT_EQ(result.worker_outcomes[0], core::WorkerOutcome::kFinished);
}

TEST(TrainOptions, RecoveryValidation) {
  core::DistTrainOptions options = recovery_train_options();
  options.smb_replicas = 0;
  EXPECT_THROW((void)core::train_shmcaffe(options), std::invalid_argument);

  core::DistTrainOptions hybrid = recovery_train_options();
  hybrid.workers = 4;
  hybrid.group_size = 2;
  hybrid.recovery.respawn_crashed = true;
  EXPECT_THROW((void)core::train_shmcaffe(hybrid), std::invalid_argument);
}

}  // namespace
}  // namespace shmcaffe
