// Tests for the end-to-end SMB data-integrity layer: per-chunk checksums and
// verify-on-read detection, torn-write application, replica read-repair and
// scrubbing, the shared integrity schedule + fingerprint, SmbClient tagged
// retransmission (idempotent replay), checkpoint-slot corruption fallback,
// and the acceptance runs — a seeded corruption plan through a replicated
// trainer detects, repairs and converges to the fault-free result, with the
// functional and simulated stacks executing identical integrity lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/sim_shmcaffe.h"
#include "core/trainer.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "recovery/checkpoint.h"
#include "recovery/integrity.h"
#include "recovery/replicated_smb.h"
#include "smb/client.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using recovery::IntegrityAction;
using recovery::IntegrityEvent;
using recovery::IntegrityPolicy;
using recovery::ReplicatedSmb;

/// Small chunks so a few-float segment spans several of them.
smb::SmbServerOptions verified_options(std::size_t chunk_floats = 4) {
  smb::SmbServerOptions options;
  options.integrity.checksum_chunks = true;
  options.integrity.verify_on_read = true;
  options.integrity.chunk_floats = chunk_floats;
  return options;
}

// --- chunk checksums: detection ------------------------------------------

TEST(ChunkChecksums, CleanMutationsKeepChecksumsValid) {
  smb::SmbServer server(verified_options());
  const smb::Handle g = server.create_floats(1, 10);
  const smb::Handle d = server.create_floats(2, 10);
  server.write(g, std::vector<float>(10, 1.0f));
  server.write(d, std::vector<float>(10, 0.5f));
  server.accumulate(d, g);
  std::vector<float> seen(10);
  server.read(g, seen);  // verifies: no throw
  EXPECT_EQ(seen, std::vector<float>(10, 1.5f));
  EXPECT_TRUE(server.verify_segment(g).empty());
  EXPECT_GT(server.stats().chunks_verified, 0u);
  EXPECT_EQ(server.stats().corruptions_detected, 0u);
  server.release(g);
  server.release(d);
}

TEST(ChunkChecksums, ReadOfPoisonedChunkThrowsAndRecordsMarker) {
  smb::SmbServer server(verified_options());
  const smb::Handle g = server.create_floats(7, 10);
  server.write(g, std::vector<float>(10, 2.0f));
  ASSERT_GT(server.corrupt_floats(7, /*marker=*/0x51, /*bit_flips=*/3), 0u);
  std::vector<float> seen(10);
  EXPECT_THROW(server.read(g, seen), smb::SmbCorruption);
  EXPECT_GT(server.stats().corruptions_detected, 0u);
  EXPECT_EQ(server.detected_markers(), std::vector<std::uint64_t>{0x51});
  server.release(g);
}

TEST(ChunkChecksums, AccumulateVerifiesTheDestinationFirst) {
  // Accumulating into a corrupt destination must throw, not recompute the
  // checksum over poisoned data (which would launder the corruption).
  smb::SmbServer server(verified_options());
  const smb::Handle src = server.create_floats(1, 8);
  const smb::Handle dst = server.create_floats(2, 8);
  server.write(src, std::vector<float>(8, 1.0f));
  server.write(dst, std::vector<float>(8, 1.0f));
  ASSERT_GT(server.corrupt_floats(2, /*marker=*/0x99, /*bit_flips=*/2), 0u);
  EXPECT_THROW(server.accumulate(src, dst), smb::SmbCorruption);
  EXPECT_EQ(server.detected_markers(), std::vector<std::uint64_t>{0x99});
  server.release(src);
  server.release(dst);
}

TEST(ChunkChecksums, ChecksumsOffMeansCorruptionIsSilent) {
  smb::SmbServer server;  // the pre-integrity default: no checksums
  const smb::Handle g = server.create_floats(3, 8);
  server.write(g, std::vector<float>(8, 1.0f));
  EXPECT_GT(server.corrupt_floats(3, 0x42, 1), 0u);
  std::vector<float> seen(8);
  server.read(g, seen);  // no verification, no throw
  EXPECT_TRUE(server.detected_markers().empty());
  EXPECT_EQ(server.stats().chunks_verified, 0u);
  server.release(g);
}

TEST(ChunkChecksums, DeterministicInjectionFlipsTheSameBits) {
  // The marker doubles as the bit-position seed: two servers corrupted with
  // the same marker end up with bit-identical poisoned contents.
  std::vector<float> a_seen(16);
  std::vector<float> b_seen(16);
  for (std::vector<float>* out : {&a_seen, &b_seen}) {
    smb::SmbServer server(verified_options());
    const smb::Handle g = server.create_floats(5, 16);
    server.write(g, std::vector<float>(16, 3.0f));
    server.corrupt_floats(5, 0xabc, 4);
    server.read_raw(g, *out);
    server.release(g);
  }
  EXPECT_EQ(a_seen, b_seen);
  EXPECT_NE(a_seen, std::vector<float>(16, 3.0f));
}

// --- torn writes ----------------------------------------------------------

TEST(TornWrite, ArmedOrdinalAppliesPartiallyAndPoisonsTheTail) {
  smb::SmbServer server(verified_options(/*chunk_floats=*/4));
  const smb::Handle g = server.create_floats(9, 8);
  server.write(g, std::vector<float>(8, 1.0f));  // ordinal 1: full
  server.arm_torn_write(/*ordinal=*/2, /*fraction=*/0.5);
  server.write(g, std::vector<float>(8, 2.0f));  // ordinal 2: torn

  // The leading half landed, the tail kept the old data, and the checksums
  // recorded the *intended* write — the tail chunk no longer verifies.
  std::vector<float> seen(8);
  server.read_raw(g, seen);
  std::vector<float> expected(8, 2.0f);
  std::fill(expected.begin() + 4, expected.end(), 1.0f);
  EXPECT_EQ(seen, expected);

  const std::uint64_t marker = smb::SmbServer::kTornWriteMarkerBit | 2;
  const std::vector<smb::SmbServer::CorruptChunk> bad = server.verify_segment(g);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].chunk, 1u);
  EXPECT_EQ(bad[0].marker, marker);
  EXPECT_EQ(server.stats().torn_writes_applied, 1u);
  EXPECT_EQ(server.torn_applied_markers(), std::vector<std::uint64_t>{marker});
  EXPECT_THROW(server.read(g, seen), smb::SmbCorruption);
  server.release(g);
}

TEST(TornWrite, UnreachedOrdinalNeverFires) {
  smb::SmbServer server(verified_options());
  const smb::Handle g = server.create_floats(4, 4);
  server.arm_torn_write(/*ordinal=*/50, 0.5);
  server.write(g, std::vector<float>(4, 1.0f));
  std::vector<float> seen(4);
  server.read(g, seen);  // clean
  EXPECT_EQ(server.stats().torn_writes_applied, 0u);
  EXPECT_TRUE(server.torn_applied_markers().empty());
  server.release(g);
}

// --- SmbClient tagged retransmission (satellite: idempotent retry) --------

TEST(SmbClientRetry, ResentAccumulateIsDroppedNotReapplied) {
  smb::SmbServer server;
  smb::SmbClient client(server);
  const smb::Handle src = client.create_floats(1, 2);
  const smb::Handle dst = client.create_floats(2, 2);
  client.write(src, std::vector<float>{1, 1});
  client.write(dst, std::vector<float>{0, 0});

  client.accumulate(src, dst);
  // The ambiguous-timeout retransmit: the op landed, so the replay under the
  // original tag must be dropped, not applied a second time.
  EXPECT_TRUE(client.resend_last_mutation());
  EXPECT_TRUE(client.resend_last_mutation());  // and again
  std::vector<float> seen(2);
  client.read(dst, seen);
  EXPECT_EQ(seen, (std::vector<float>{1, 1}));
  EXPECT_EQ(server.stats().replays_dropped, 2u);
  client.release(src);
  client.release(dst);
}

TEST(SmbClientRetry, ResentWriteIsDroppedAndTagsNeverRepeat) {
  smb::SmbServer server;
  smb::SmbClient client(server);
  const smb::Handle g = client.create_floats(5, 2);
  client.write(g, std::vector<float>{1, 2});
  const smb::OpTag first = client.last_mutation_tag();
  EXPECT_TRUE(first.tagged());
  EXPECT_TRUE(client.resend_last_mutation());
  EXPECT_EQ(server.stats().replays_dropped, 1u);

  client.write(g, std::vector<float>{3, 4});
  const smb::OpTag second = client.last_mutation_tag();
  EXPECT_EQ(second.writer, first.writer);
  EXPECT_NE(second.sequence, first.sequence);
  std::vector<float> seen(2);
  client.read(g, seen);
  EXPECT_EQ(seen, (std::vector<float>{3, 4}));
  client.release(g);
}

TEST(SmbClientRetry, NothingToResendReturnsFalse) {
  smb::SmbServer server;
  smb::SmbClient client(server);
  EXPECT_FALSE(client.resend_last_mutation());
}

TEST(SmbClientRetry, DistinctClientsGetDistinctWriterIds) {
  smb::SmbServer server;
  smb::SmbClient a(server);
  smb::SmbClient b(server);
  EXPECT_NE(a.writer_id(), b.writer_id());
  EXPECT_NE(a.writer_id(), 1u);  // 1 is reserved for the mirror agent
  EXPECT_NE(b.writer_id(), 1u);
}

// --- replica read-repair --------------------------------------------------

struct Ensemble {
  smb::SmbServer a{verified_options()};
  smb::SmbServer b{verified_options()};
  ReplicatedSmb replicated;
  explicit Ensemble(bool read_repair = true) : replicated({&a, &b}, read_repair) {}
};

TEST(ReadRepair, PoisonedActiveReplicaIsHealedFromThePeer) {
  Ensemble e;
  const smb::Handle g = e.replicated.create_floats(11, 8);
  e.replicated.write(g, std::vector<float>(8, 4.0f));
  ASSERT_GT(e.replicated.inject_corruption(11, /*marker=*/0x77, /*bit_flips=*/3), 0u);

  // The read detects the mismatch, votes among the replicas (the backup is
  // clean), rewrites the active copy, and serves the repaired data.
  std::vector<float> seen(8);
  e.replicated.read(g, seen);
  EXPECT_EQ(seen, std::vector<float>(8, 4.0f));
  EXPECT_EQ(e.replicated.repairs(), 1u);
  EXPECT_EQ(e.replicated.repaired_markers(), std::vector<std::uint64_t>{0x77});
  EXPECT_EQ(e.replicated.detected_markers(), std::vector<std::uint64_t>{0x77});
  EXPECT_EQ(e.replicated.corruptions_detected(), 1u);

  // Both physical copies verify clean afterwards.
  for (smb::SmbServer* replica : {&e.a, &e.b}) {
    const smb::Handle ph = replica->attach_floats(11);
    EXPECT_TRUE(replica->verify_segment(ph).empty());
    replica->release(ph);
  }
  e.replicated.release(g);
}

TEST(ReadRepair, MutationFanOutRepairsTheCorruptCopyAndStaysExactlyOnce) {
  Ensemble e;
  const smb::Handle src = e.replicated.create_floats(1, 4);
  const smb::Handle dst = e.replicated.create_floats(2, 4);
  e.replicated.write(src, std::vector<float>(4, 1.0f));
  e.replicated.write(dst, std::vector<float>(4, 10.0f));
  // Poison the *backup's* destination copy: the fan-out hits it during the
  // pre-accumulate verification, repairs it from the clean active copy, and
  // the retried op still applies exactly once on every replica.
  ASSERT_GT(e.b.corrupt_floats(2, 0x31, 2), 0u);
  e.replicated.accumulate(src, dst);

  for (smb::SmbServer* replica : {&e.a, &e.b}) {
    const smb::Handle ph = replica->attach_floats(2);
    std::vector<float> seen(4);
    replica->read(ph, seen);
    EXPECT_EQ(seen, std::vector<float>(4, 11.0f));
    replica->release(ph);
  }
  EXPECT_EQ(e.replicated.repairs(), 1u);
  EXPECT_EQ(e.replicated.repaired_markers(), std::vector<std::uint64_t>{0x31});
}

TEST(ReadRepair, DisabledRepairSurfacesTheCorruption) {
  Ensemble e(/*read_repair=*/false);
  const smb::Handle g = e.replicated.create_floats(13, 4);
  e.replicated.write(g, std::vector<float>(4, 1.0f));
  ASSERT_GT(e.replicated.inject_corruption(13, 0x5a, 2), 0u);
  std::vector<float> seen(4);
  EXPECT_THROW(e.replicated.read(g, seen), smb::SmbCorruption);
  EXPECT_EQ(e.replicated.repairs(), 0u);
  EXPECT_TRUE(e.replicated.repaired_markers().empty());
}

TEST(ReadRepair, NoCleanPeerIsUnrepairable) {
  Ensemble e;
  const smb::Handle g = e.replicated.create_floats(17, 4);
  e.replicated.write(g, std::vector<float>(4, 1.0f));
  ASSERT_GT(e.a.corrupt_floats(17, 0x21, 2), 0u);
  ASSERT_GT(e.b.corrupt_floats(17, 0x22, 2), 0u);
  std::vector<float> seen(4);
  EXPECT_THROW(e.replicated.read(g, seen), smb::SmbCorruption);
  EXPECT_EQ(e.replicated.repairs(), 0u);
}

TEST(Scrub, WalksEverySegmentAndRepairsSilentCorruption) {
  Ensemble e;
  const smb::Handle g = e.replicated.create_floats(23, 8);
  const smb::Handle d = e.replicated.create_floats(24, 8);
  e.replicated.write(g, std::vector<float>(8, 1.0f));
  e.replicated.write(d, std::vector<float>(8, 2.0f));
  // Silent rot on the *backup*: nothing reads the backup's copy, so only a
  // scrub can find it before the next failover would adopt the bad bits.
  ASSERT_GT(e.b.corrupt_floats(24, 0x61, 2), 0u);

  EXPECT_EQ(e.replicated.scrub(), 1u);  // one segment repaired
  EXPECT_EQ(e.replicated.scrub_passes(), 1u);
  EXPECT_EQ(e.replicated.repaired_markers(), std::vector<std::uint64_t>{0x61});
  const smb::Handle ph = e.b.attach_floats(24);
  EXPECT_TRUE(e.b.verify_segment(ph).empty());
  std::vector<float> seen(8);
  e.b.read(ph, seen);
  EXPECT_EQ(seen, std::vector<float>(8, 2.0f));
  e.b.release(ph);

  EXPECT_EQ(e.replicated.scrub(), 0u);  // second pass finds nothing
  EXPECT_EQ(e.replicated.scrub_passes(), 2u);
}

// --- integrity schedule + fingerprint -------------------------------------

TEST(IntegritySchedule, ActionNamesAreExhaustiveAndDistinct) {
  std::vector<std::string> names;
  for (const IntegrityAction action :
       {IntegrityAction::kCorruptionInjected, IntegrityAction::kCorruptionDetected,
        IntegrityAction::kCorruptionRepaired, IntegrityAction::kTornWriteApplied}) {
    names.emplace_back(recovery::to_string(action));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

FaultPlan corruption_plan() {
  FaultPlan plan;
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kSegmentCorruption;
  corrupt.target = 0;
  corrupt.start_seconds = 0.05;
  corrupt.severity = 3;
  corrupt.sequence = 0x5eed;
  plan.add(corrupt);
  FaultEvent torn;
  torn.kind = FaultKind::kTornWrite;
  torn.target = 1;
  torn.sequence = 4;  // write ordinal
  torn.severity = 0.5;
  plan.add(torn);
  return plan;
}

TEST(IntegritySchedule, PolicyGatesDetectionAndRepair) {
  IntegrityPolicy off;  // defaults: no verification
  EXPECT_EQ(recovery::integrity_schedule(corruption_plan(), off).size(), 2u);

  IntegrityPolicy verify;
  verify.checksum_chunks = true;
  verify.verify_on_read = true;
  verify.read_repair = false;
  const auto detected = recovery::integrity_schedule(corruption_plan(), verify);
  ASSERT_EQ(detected.size(), 4u);
  EXPECT_EQ(detected[0].action, IntegrityAction::kCorruptionInjected);
  EXPECT_EQ(detected[1].action, IntegrityAction::kCorruptionDetected);
  EXPECT_EQ(detected[2].action, IntegrityAction::kTornWriteApplied);
  EXPECT_EQ(detected[3].action, IntegrityAction::kCorruptionDetected);
  EXPECT_EQ(static_cast<std::uint64_t>(detected[3].key),
            smb::SmbServer::kTornWriteMarkerBit | 4);

  verify.read_repair = true;
  const auto repaired = recovery::integrity_schedule(corruption_plan(), verify);
  EXPECT_EQ(repaired.size(), 6u);
  // Same plan, same policy — bit-identical schedule and fingerprint.
  const auto again = recovery::integrity_schedule(corruption_plan(), verify);
  EXPECT_EQ(repaired, again);
  EXPECT_EQ(common::fingerprint(repaired), common::fingerprint(again));
  EXPECT_NE(common::fingerprint(repaired), common::fingerprint(detected));
}

TEST(IntegritySchedule, ExecutedFilterKeepsOnlyObservedMarkers) {
  IntegrityPolicy policy;
  policy.checksum_chunks = true;
  policy.verify_on_read = true;
  const auto planned = recovery::integrity_schedule(corruption_plan(), policy);
  common::EventLedger<IntegrityAction> ledger;
  ledger.record_key(IntegrityAction::kCorruptionInjected, 0x5eed);
  ledger.record_key(IntegrityAction::kCorruptionDetected, 0x5eed);
  // The torn write never reached its ordinal and the repair never ran.
  const auto executed = common::executed_events(planned, ledger);
  ASSERT_EQ(executed.size(), 2u);
  EXPECT_EQ(executed[0].action, IntegrityAction::kCorruptionInjected);
  EXPECT_EQ(executed[1].action, IntegrityAction::kCorruptionDetected);

  const common::EventLedger<IntegrityAction> nothing;
  EXPECT_TRUE(common::executed_events(planned, nothing).empty());
  const std::vector<IntegrityEvent> none;
  EXPECT_EQ(common::fingerprint(common::executed_events(planned, nothing)),
            common::fingerprint(none));
}

TEST(IntegritySchedule, DescribeMentionsEveryEvent) {
  IntegrityPolicy policy;
  policy.checksum_chunks = true;
  policy.verify_on_read = true;
  const auto planned = recovery::integrity_schedule(corruption_plan(), policy);
  const std::string text = common::describe(planned);
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            planned.size());
}

// --- checkpoint-slot corruption fallback (satellite) ----------------------

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shmcaffe_integrity_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::DistTrainOptions small_train_options() {
  core::DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 1;
  options.group_size = 1;
  options.input = dl::ModelInputSpec{1, 12, 12, 6};
  options.train_data.channels = 1;
  options.train_data.height = 12;
  options.train_data.width = 12;
  options.train_data.classes = 6;
  options.train_data.size = 1024;
  options.train_data.noise_stddev = 0.25;
  options.test_data = options.train_data;
  options.test_data.size = 384;
  options.test_data.seed = 0x7e57;
  options.batch_size = 16;
  options.epochs = 3;
  options.heartbeat_timeout_seconds = 0.5;
  return options;
}

core::DistTrainOptions checkpointed_options(const std::string& directory) {
  core::DistTrainOptions options = small_train_options();
  options.checkpoint.directory = directory;
  options.checkpoint.interval_iterations = 20;
  return options;
}

/// Flips a byte in the slot file currently holding checkpoint `sequence`.
void rot_slot_holding(const recovery::CheckpointStore& store, std::uint64_t sequence) {
  for (int slot = 0; slot < 2; ++slot) {
    const std::string& path = store.slot_path(slot);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) continue;
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<char> data(size);
    in.read(data.data(), static_cast<std::streamsize>(size));
    const std::optional<recovery::TrainCheckpoint> decoded = recovery::decode_checkpoint(
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(data.data()), size));
    if (!decoded.has_value() || decoded->sequence != sequence) continue;
    data[size / 2] = static_cast<char>(data[size / 2] ^ 0x08);  // silent bit rot
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(size));
    return;
  }
  FAIL() << "no slot holds sequence " << sequence;
}

TEST(CheckpointCorruption, RottenNewestSlotFallsBackToOlderSlotBitExactly) {
  // Reference: an uninterrupted single-worker run (fully deterministic).
  const core::TrainResult uninterrupted =
      core::train_shmcaffe(checkpointed_options(fresh_dir("reference")));

  // The same run killed at iteration 50 leaves checkpoints 1 (it 20) and
  // 2 (it 40) on disk; then the newest slot rots on disk.
  const std::string dir = fresh_dir("rotten");
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 0;
  crash.iteration = 50;
  plan.add(crash);
  const FaultInjector injector(plan);
  core::DistTrainOptions interrupted = checkpointed_options(dir);
  interrupted.faults = &injector;
  const core::TrainResult killed = core::train_shmcaffe(interrupted);
  ASSERT_GE(killed.checkpoints_taken, 2);
  rot_slot_holding(recovery::CheckpointStore(dir), 2);

  // The resume must reject the rotten slot (its checksum no longer
  // validates), adopt the older one, and still reproduce the uninterrupted
  // run exactly — the older checkpoint is just an earlier point on the same
  // deterministic trajectory.
  core::DistTrainOptions resume = checkpointed_options(dir);
  resume.checkpoint.resume = true;
  const core::TrainResult resumed = core::train_shmcaffe(resume);
  EXPECT_EQ(resumed.resumed_iterations, 20);
  EXPECT_EQ(resumed.worker_outcomes[0], core::WorkerOutcome::kFinished);
  EXPECT_EQ(resumed.final_accuracy, uninterrupted.final_accuracy);
  EXPECT_EQ(resumed.final_loss, uninterrupted.final_loss);
}

// --- end-to-end: detect, repair, converge ---------------------------------

IntegrityPolicy full_integrity() {
  IntegrityPolicy policy;
  policy.checksum_chunks = true;
  policy.verify_on_read = true;
  policy.read_repair = true;
  policy.scrub_on_checkpoint = true;
  return policy;
}

/// Two corruption bursts against two of the shard's three replicas.  The
/// third replica is never targeted, so a clean vote peer exists no matter
/// how injection timing lands relative to the exchange schedule — the
/// repair path cannot degrade to a rollback even under a 15x sanitizer
/// slowdown where both bursts fire between two exchanges.
FaultPlan replica_corruption_plan() {
  FaultPlan plan;
  FaultEvent first;
  first.kind = FaultKind::kSegmentCorruption;
  first.target = 0;  // shard 0, replica 0
  first.start_seconds = 0.05;
  first.severity = 3;
  first.sequence = 0x1111;
  plan.add(first);
  FaultEvent second;
  second.kind = FaultKind::kSegmentCorruption;
  second.target = 1;  // shard 0, replica 1
  second.start_seconds = 0.10;
  second.severity = 3;
  second.sequence = 0x2222;
  plan.add(second);
  return plan;
}

TEST(IntegrityEndToEnd, CorruptionIsDetectedRepairedAndHarmless) {
  // The acceptance run: seeded corruption against two replicas of a
  // replicated single-worker trainer.  Every burst must be detected by
  // checksum verification and healed by replica vote, and the final result
  // must equal the fault-free run bit for bit — the single-worker mlp path
  // is fully deterministic, so any surviving corruption would change it.
  const FaultInjector injector(replica_corruption_plan());
  core::DistTrainOptions options = small_train_options();
  options.smb_replicas = 3;
  options.integrity = full_integrity();
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.corruptions_detected, 2);
  EXPECT_GE(result.integrity_repairs, 2);
  EXPECT_EQ(result.integrity_rollbacks, 0);
  EXPECT_GE(result.scrub_passes, 1);

  core::DistTrainOptions clean = small_train_options();
  clean.smb_replicas = 3;
  clean.integrity = full_integrity();
  const core::TrainResult baseline = core::train_shmcaffe(clean);
  EXPECT_EQ(result.final_accuracy, baseline.final_accuracy);
  EXPECT_EQ(result.final_loss, baseline.final_loss);

  // Everything planned executed: the executed list is the full schedule.
  const auto planned =
      recovery::integrity_schedule(injector.plan(), options.integrity);
  ASSERT_TRUE(result.integrity_events.has_value());
  EXPECT_EQ(common::first_divergence(*result.integrity_events, planned), "");
}

TEST(IntegrityEndToEnd, FunctionalAndSimulatedFingerprintsAgree) {
  const FaultInjector injector(replica_corruption_plan());

  core::DistTrainOptions functional = small_train_options();
  functional.smb_replicas = 3;
  functional.integrity = full_integrity();
  functional.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(functional);

  core::SimShmCaffeOptions sim;
  sim.workers = 4;
  sim.group_size = 1;
  sim.iterations = 60;
  sim.smb_replicas = 3;
  sim.integrity = full_integrity();
  sim.faults = &injector;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);

  ASSERT_TRUE(timing.integrity_events.has_value());
  EXPECT_EQ(common::first_divergence(timing.integrity_events, result.integrity_events), "");
  EXPECT_EQ(timing.corruptions_detected, result.corruptions_detected);
  EXPECT_GT(timing.repair_time, 0);
  EXPECT_GT(timing.scrub_passes, 0);

  // The model charges repairs into the makespan: the same run without
  // faults finishes sooner.
  core::SimShmCaffeOptions clean = sim;
  clean.faults = nullptr;
  const cluster::PlatformTiming unfaulted = core::simulate_shmcaffe(clean);
  EXPECT_GT(timing.makespan, unfaulted.makespan);
  EXPECT_FALSE(unfaulted.integrity_events.has_value());
}

TEST(IntegrityEndToEnd, WithoutRepairDetectionDegradesToRollback) {
  // One corruption burst, single replica: detection still fires but there
  // is no peer to vote against, so the trainer falls back to a rollback
  // instead of a repair (measurable degradation of the recovery quality).
  FaultPlan plan;
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kSegmentCorruption;
  corrupt.target = 0;
  corrupt.start_seconds = 0.05;
  corrupt.severity = 3;
  corrupt.sequence = 0x3333;
  plan.add(corrupt);
  const FaultInjector injector(plan);

  core::DistTrainOptions options = small_train_options();
  options.smb_replicas = 1;
  options.integrity = full_integrity();
  options.integrity.read_repair = false;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.corruptions_detected, 1);
  EXPECT_EQ(result.integrity_repairs, 0);
  EXPECT_GE(result.integrity_rollbacks, 1);
  EXPECT_EQ(result.worker_outcomes[0], core::WorkerOutcome::kFinished);

  // The executed schedule (inject + detect, no repair) is exactly the one
  // planned under this policy.
  const auto planned = recovery::integrity_schedule(plan, options.integrity);
  ASSERT_TRUE(result.integrity_events.has_value());
  EXPECT_EQ(common::first_divergence(*result.integrity_events, planned), "");
}

TEST(IntegrityEndToEnd, GeneratedPlanRunsDeterministically) {
  fault::FaultPlanSpec spec;
  spec.seed = 0xc0ffee;
  spec.servers = 2;
  spec.horizon_seconds = 0.2;
  spec.corruption_probability = 1.0;
  spec.corruption_bit_flips = 2;
  const FaultPlan plan = FaultPlan::generate(spec);
  ASSERT_FALSE(plan.empty());
  const FaultInjector injector(plan);

  // Three replicas, two generated corruption targets (spec.servers = 2):
  // the untargeted third replica keeps the plan repairable under any
  // injection-vs-exchange interleaving, so the runs stay bit-comparable.
  core::DistTrainOptions options = small_train_options();
  options.smb_replicas = 3;
  options.integrity = full_integrity();
  options.faults = &injector;
  const core::TrainResult a = core::train_shmcaffe(options);
  const core::TrainResult b = core::train_shmcaffe(options);
  EXPECT_EQ(common::first_divergence(a.integrity_events, b.integrity_events), "");
  EXPECT_EQ(a.corruptions_detected, b.corruptions_detected);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

}  // namespace
}  // namespace shmcaffe
