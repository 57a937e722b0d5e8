// Tests for the elastic membership layer: the planned membership schedule
// and its fingerprint, executed-change filtering, the straggler-detection
// math, the MembershipService registry (epochs, shard rebalancing,
// counters), the growable progress board (cold-join slots, rate EWMAs,
// straggler sweeps, the quarantine hold on the stop), the simulated twin at
// scale (heterogeneous cohorts, staleness accounting), the elastic baseline
// star, and the end-to-end acceptance runs — workers join, drain,
// straggle-and-quarantine, and crash in one run with identical executed
// membership lists from the functional and simulated stacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/sim_platforms.h"
#include "core/config.h"
#include "core/progress_board.h"
#include "core/sim_shmcaffe.h"
#include "core/trainer.h"
#include "elastic/membership.h"
#include "elastic/straggler.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "recovery/epoch.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

using elastic::MembershipAction;
using elastic::MembershipChange;
using elastic::MembershipEvent;
using elastic::MembershipEventKind;
using elastic::MembershipPlan;
using elastic::MembershipPolicy;
using elastic::MembershipService;
using elastic::StragglerVerdict;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;

// --- shard assignment ------------------------------------------------------

TEST(ShardAssignments, ContiguousAndBalanced) {
  const std::vector<int> members{0, 1, 2, 3};
  EXPECT_EQ(elastic::shard_assignments(members, 2), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(elastic::shard_assignments(members, 4), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(elastic::shard_assignments(std::vector<int>{7}, 4), std::vector<int>{0});
  EXPECT_TRUE(elastic::shard_assignments(std::vector<int>{}, 4).empty());
}

TEST(ShardAssignments, SingleLeaveReassignsFewWorkers) {
  const std::vector<int> before{0, 1, 2, 3, 4, 5};
  const std::vector<int> after{0, 1, 3, 4, 5};  // worker 2 left
  const std::vector<int> a = elastic::shard_assignments(before, 3);
  const std::vector<int> b = elastic::shard_assignments(after, 3);
  // Contiguous block maps move at most a handful of neighbours per change.
  int moved = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    std::size_t j = 0;
    while (before[j] != after[i]) ++j;
    if (a[j] != b[i]) ++moved;
  }
  EXPECT_LE(moved, 2);
}

// --- planned schedule ------------------------------------------------------

MembershipPolicy detection_policy() {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.quarantine_stall_seconds = 0.35;
  policy.evict_after_violations = 3;
  return policy;
}

TEST(MembershipSchedule, OrdersJoinsDrainsAndChainsDeterministically) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 6});
  plan.add({MembershipEventKind::kDrain, 1, 9});

  FaultPlan faults;
  for (std::int64_t it : {3, 7, 11}) {
    FaultEvent stall;
    stall.kind = FaultKind::kWorkerStall;
    stall.target = 2;
    stall.iteration = it;
    stall.duration_seconds = 0.5;  // >= quarantine_stall_seconds
    faults.add(stall);
  }

  const std::vector<MembershipChange> changes =
      elastic::membership_schedule(&plan, &faults, detection_policy(), 4);
  const std::vector<MembershipChange> expected{
      {MembershipAction::kQuarantine, 2, 3},
      {MembershipAction::kReadmitContributor, 2, 3},
      {MembershipAction::kWorkerJoin, 4, 6},
      {MembershipAction::kShardRebalance, 4, 6},
      {MembershipAction::kQuarantine, 2, 7},
      {MembershipAction::kReadmitContributor, 2, 7},
      {MembershipAction::kWorkerDrain, 1, 9},
      {MembershipAction::kShardRebalance, 1, 9},
      {MembershipAction::kEvict, 2, 11},  // third violation
      {MembershipAction::kShardRebalance, 2, 11},
  };
  EXPECT_EQ(changes, expected);

  // Same inputs, same schedule, same fingerprint — every time.
  const auto again = elastic::membership_schedule(&plan, &faults, detection_policy(), 4);
  EXPECT_EQ(common::fingerprint(changes), common::fingerprint(again));
  EXPECT_NE(common::fingerprint(changes),
            common::fingerprint(std::vector<MembershipChange>{}));
  const std::string rendered = common::describe(changes);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(rendered.begin(), rendered.end(), '\n')),
            changes.size());
}

TEST(MembershipSchedule, ChainStopsAtCrashDrainAndShortStallsDeriveNothing) {
  FaultPlan faults;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 5;
  stall.duration_seconds = 0.1;  // below the planning bound: ignored
  faults.add(stall);
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 2;
  crash.iteration = 8;
  faults.add(crash);
  FaultEvent late_stall = stall;
  late_stall.iteration = 12;  // after the crash: the worker is gone
  late_stall.duration_seconds = 1.0;
  faults.add(late_stall);

  EXPECT_TRUE(
      elastic::membership_schedule(nullptr, &faults, detection_policy(), 4).empty());

  // Detection off: stalls derive nothing even when long.
  MembershipPolicy off = detection_policy();
  off.straggler_detection = false;
  FaultPlan long_stalls;
  FaultEvent s2 = stall;
  s2.duration_seconds = 2.0;
  long_stalls.add(s2);
  EXPECT_TRUE(elastic::membership_schedule(nullptr, &long_stalls, off, 4).empty());
}

TEST(MembershipPlan, CapacityAndDrainLookup) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 6, 10});
  plan.add({MembershipEventKind::kJoin, 4, 2});
  plan.add({MembershipEventKind::kDrain, 1, 30});
  EXPECT_EQ(plan.capacity(4), 7);  // max join slot + 1
  EXPECT_EQ(plan.capacity(9), 9);
  EXPECT_EQ(plan.drain_iteration(1), 30);
  EXPECT_EQ(plan.drain_iteration(0), -1);
  const std::vector<MembershipEvent> joins = plan.joins();
  ASSERT_EQ(joins.size(), 2u);
  EXPECT_EQ(joins[0].worker, 4);  // sorted by trigger iteration
  EXPECT_EQ(joins[1].worker, 6);
}

// --- executed-change filtering --------------------------------------------

TEST(FilterExecuted, KeepsExecutedChangesAndTheirRebalances) {
  const std::vector<MembershipChange> planned{
      {MembershipAction::kQuarantine, 2, 3},
      {MembershipAction::kReadmitContributor, 2, 3},
      {MembershipAction::kWorkerJoin, 4, 6},
      {MembershipAction::kShardRebalance, 4, 6},
      {MembershipAction::kWorkerDrain, 1, 9},
      {MembershipAction::kShardRebalance, 1, 9},
  };
  common::EventLedger<MembershipAction> executed;
  executed.record(MembershipAction::kQuarantine, 2);
  executed.record(MembershipAction::kReadmitContributor, 2);
  executed.record(MembershipAction::kWorkerJoin, 4);
  executed.record(MembershipAction::kShardRebalance, 4);

  const std::vector<MembershipChange> kept =
      common::executed_events(planned, executed, MembershipAction::kShardRebalance);
  // The drain never ran, so neither it nor its rebalance survives.
  const std::vector<MembershipChange> expected{
      {MembershipAction::kQuarantine, 2, 3},
      {MembershipAction::kReadmitContributor, 2, 3},
      {MembershipAction::kWorkerJoin, 4, 6},
      {MembershipAction::kShardRebalance, 4, 6},
  };
  EXPECT_EQ(common::first_divergence(kept, expected), "");
  EXPECT_NE(common::fingerprint(kept), common::fingerprint(planned));
}

// --- straggler math --------------------------------------------------------

TEST(StragglerMath, EwmaAdoptsFirstSampleThenSmooths) {
  EXPECT_DOUBLE_EQ(elastic::ewma(0.0, 100.0, 0.25), 100.0);
  EXPECT_DOUBLE_EQ(elastic::ewma(100.0, 200.0, 0.25), 125.0);
  EXPECT_DOUBLE_EQ(elastic::projected_staleness(0.5, 200.0), 100.0);
  EXPECT_DOUBLE_EQ(elastic::projected_staleness(-1.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(elastic::projected_staleness(0.5, 0.0), 0.0);
}

TEST(StragglerMath, VerdictsFollowThePolicyBounds) {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.staleness_bound_iterations = 50.0;
  policy.readmit_staleness_iterations = 10.0;
  policy.min_silence_seconds = 0.1;
  policy.evict_after_violations = 3;

  // Below the absolute silence guard: never a violation, whatever the rate.
  EXPECT_EQ(elastic::judge_alive(0.05, 1e6, 0, policy), StragglerVerdict::kNone);
  // Silent but projected under the bound: fine.
  EXPECT_EQ(elastic::judge_alive(0.2, 100.0, 0, policy), StragglerVerdict::kNone);
  // Over the bound: quarantine, then evict on the Nth violation.
  EXPECT_EQ(elastic::judge_alive(0.2, 1000.0, 0, policy), StragglerVerdict::kQuarantine);
  EXPECT_EQ(elastic::judge_alive(0.2, 1000.0, 1, policy), StragglerVerdict::kQuarantine);
  EXPECT_EQ(elastic::judge_alive(0.2, 1000.0, 2, policy), StragglerVerdict::kEvict);
  // Quarantined: readmit only once the projection collapses.
  EXPECT_EQ(elastic::judge_quarantined(1.0, 1000.0, policy), StragglerVerdict::kNone);
  EXPECT_EQ(elastic::judge_quarantined(0.005, 1000.0, policy),
            StragglerVerdict::kReadmit);
}

TEST(StragglerMath, StallBoundTripsWhateverTheRate) {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.staleness_bound_iterations = 50.0;
  policy.readmit_staleness_iterations = 10.0;
  policy.min_silence_seconds = 0.1;
  policy.quarantine_stall_seconds = 0.35;
  policy.evict_after_violations = 3;

  // A slow cohort projects a long silence under the staleness bound, but a
  // silence at the planning bound that the cohort ran past the readmit
  // bound is a violation anyway.
  EXPECT_EQ(elastic::judge_alive(0.3, 40.0, 0, policy), StragglerVerdict::kNone);
  EXPECT_EQ(elastic::judge_alive(0.35, 40.0, 0, policy), StragglerVerdict::kQuarantine);
  EXPECT_EQ(elastic::judge_alive(0.35, 40.0, 2, policy), StragglerVerdict::kEvict);
  // A cohort whose own iterations take that long is not straggling.
  EXPECT_EQ(elastic::judge_alive(0.5, 2.0, 0, policy), StragglerVerdict::kNone);
  // A still-stalled worker whose projection dips under the readmit bound
  // (the cohort slowed) stays quarantined until its silence collapses.
  EXPECT_EQ(elastic::judge_quarantined(0.5, 10.0, policy), StragglerVerdict::kNone);
  EXPECT_EQ(elastic::judge_quarantined(0.01, 10.0, policy), StragglerVerdict::kReadmit);
}

// --- MembershipService -----------------------------------------------------

TEST(MembershipService, EpochBumpsOnMembershipChangesOnly) {
  MembershipService service(/*initial_workers=*/3, /*capacity=*/5, /*shards=*/4);
  const elastic::MembershipEpoch initial = service.epoch();
  EXPECT_EQ(initial, recovery::kInitialServiceEpoch);
  EXPECT_EQ(service.members(), (std::vector<int>{0, 1, 2}));

  const elastic::MembershipEpoch after_join = service.join(3, 5);
  EXPECT_GT(after_join, initial);
  EXPECT_EQ(service.members(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(service.joined(), std::vector<int>{3});

  // Quarantine demotes without changing the member set: no epoch bump.
  service.quarantine(1, 7);
  EXPECT_EQ(service.epoch(), after_join);
  EXPECT_EQ(service.quarantine_events(), 1);
  service.readmit_contributor(1, 8);
  EXPECT_EQ(service.epoch(), after_join);

  const elastic::MembershipEpoch after_drain = service.drain(1, 9);
  EXPECT_GT(after_drain, after_join);
  EXPECT_EQ(service.members(), (std::vector<int>{0, 2, 3}));
  const elastic::MembershipEpoch after_evict = service.evict(2, 11);
  EXPECT_GT(after_evict, after_drain);
  EXPECT_EQ(service.members(), (std::vector<int>{0, 3}));
  EXPECT_EQ(service.evicted(), std::vector<int>{2});
  EXPECT_EQ(service.rebalances(), 3);  // join + drain + evict

  // Transitions are idempotent: replaying one changes nothing.
  EXPECT_EQ(service.join(3, 5), after_evict);
  EXPECT_EQ(service.drain(1, 9), after_evict);
  EXPECT_EQ(service.rebalances(), 3);
  EXPECT_EQ(service.joined(), std::vector<int>{3});

  // The ledger holds each executed change once, in execution order (the
  // idempotent replays above logged nothing).
  const common::EventLedger<MembershipAction> ledger = service.ledger();
  std::vector<std::pair<MembershipAction, int>> logged;
  for (const auto& entry : ledger.entries()) {
    ASSERT_TRUE(entry.target.has_value());
    EXPECT_FALSE(entry.key.has_value());
    logged.emplace_back(entry.action, *entry.target);
  }
  const std::vector<std::pair<MembershipAction, int>> expected{
      {MembershipAction::kWorkerJoin, 3},
      {MembershipAction::kQuarantine, 1},
      {MembershipAction::kReadmitContributor, 1},
      {MembershipAction::kWorkerDrain, 1},
      {MembershipAction::kEvict, 2}};
  // Rebalances are derived from their trigger, never logged directly.
  EXPECT_EQ(logged, expected);
}

TEST(MembershipService, HomeShardsSpreadAndRebalance) {
  MembershipService service(4, 4, 2);
  // Balanced from the start: two workers per shard ensemble.
  EXPECT_EQ(service.home_shard(0), 0);
  EXPECT_EQ(service.home_shard(3), 1);
  service.drain(0, 10);
  service.drain(1, 11);
  // The survivors spread across both shards again.
  EXPECT_EQ(service.home_shard(2), 0);
  EXPECT_EQ(service.home_shard(3), 1);
  EXPECT_GT(service.reassignments(), 0);
  // Outside the member set: fan-out starts at shard 0.
  EXPECT_EQ(service.home_shard(0), 0);
}

// --- growable progress board ----------------------------------------------

TEST(ProgressBoardElastic, ColdJoinSlotsAndAttachDerivedCapacity) {
  smb::SmbServer server;
  core::ProgressBoard board(server, 41, /*workers=*/3, /*create=*/true,
                            /*capacity=*/6);
  EXPECT_EQ(board.capacity(), 6);
  EXPECT_EQ(board.state_of(4), core::ProgressBoard::WorkerState::kAbsent);
  EXPECT_EQ(board.live_count(), 3);

  // A cold join takes a fresh slot under a brand-new incarnation.
  const std::int64_t incarnation = board.admit(4);
  EXPECT_GT(incarnation, core::ProgressBoard::kFirstIncarnation);
  EXPECT_EQ(board.state_of(4), core::ProgressBoard::WorkerState::kAlive);
  EXPECT_EQ(board.live_count(), 4);

  // Attachers recover the creator's capacity from the segment itself.
  core::ProgressBoard attached(server, 41, /*workers=*/0, /*create=*/false);
  EXPECT_EQ(attached.capacity(), 6);
  EXPECT_EQ(attached.state_of(4), core::ProgressBoard::WorkerState::kAlive);

  // Drained and absent slots stay out of every contributing reduction.
  board.report(0, 10, core::ProgressBoard::kFirstIncarnation);
  board.report(2, 20, core::ProgressBoard::kFirstIncarnation);
  board.report(4, 30, incarnation);
  board.mark_drained(1);
  EXPECT_EQ(board.state_of(1), core::ProgressBoard::WorkerState::kDrained);
  EXPECT_EQ(board.min_iterations(), 10);
  EXPECT_EQ(board.max_iterations(), 30);
  EXPECT_DOUBLE_EQ(board.mean_iterations(), 20.0);
  board.mark_evicted(4);
  EXPECT_EQ(board.state_of(4), core::ProgressBoard::WorkerState::kEvicted);
  EXPECT_EQ(board.max_iterations(), 20);
  board.release();
}

TEST(ProgressBoardElastic, RateEwmaTracksReports) {
  smb::SmbServer server;
  core::ProgressBoard board(server, 42, 2, /*create=*/true);
  EXPECT_DOUBLE_EQ(board.rate_of(0), 0.0);
  for (std::int64_t i = 1; i <= 30; ++i) {
    board.report(0, i, core::ProgressBoard::kFirstIncarnation);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(board.rate_of(0), 0.0);
  EXPECT_GT(board.mean_live_rate(), 0.0);
  // Worker 1 reported once: no interval yet, so no rate estimate.
  board.report(1, 1, core::ProgressBoard::kFirstIncarnation);
  EXPECT_DOUBLE_EQ(board.rate_of(1), 0.0);
  board.release();
}

TEST(ProgressBoardElastic, SweepQuarantinesSilentWorkerThenReadmits) {
  smb::SmbServer server;
  core::ProgressBoard board(server, 43, 2, /*create=*/true);
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.staleness_bound_iterations = 5.0;
  policy.readmit_staleness_iterations = 3.0;
  policy.min_silence_seconds = 0.05;
  policy.evict_after_violations = 3;

  // Worker 0 reports steadily (establishing the live rate); worker 1
  // reports once, then goes silent.
  board.report(1, 1, core::ProgressBoard::kFirstIncarnation);
  const auto pump = [&board](int reports) {
    static std::int64_t iteration = 1;
    for (int i = 0; i < reports; ++i) {
      board.report(0, ++iteration, core::ProgressBoard::kFirstIncarnation);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  pump(50);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  pump(50);  // keep the rate estimate warm across worker 1's silence

  // Silence ~0.2s at a rate of hundreds of iterations/s projects far past
  // the bound of 5.
  const std::vector<elastic::StragglerTransition> demoted =
      board.sweep_stragglers(policy);
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].worker, 1);
  EXPECT_EQ(demoted[0].verdict, StragglerVerdict::kQuarantine);
  EXPECT_EQ(board.state_of(1), core::ProgressBoard::WorkerState::kQuarantined);

  // A repeated sweep does not double-demote.
  EXPECT_TRUE(board.sweep_stragglers(policy).empty());

  // The worker catches up (a fresh report collapses its silence): readmit.
  board.report(1, 2, core::ProgressBoard::kFirstIncarnation);
  const std::vector<elastic::StragglerTransition> readmitted =
      board.sweep_stragglers(policy);
  ASSERT_EQ(readmitted.size(), 1u);
  EXPECT_EQ(readmitted[0].worker, 1);
  EXPECT_EQ(readmitted[0].verdict, StragglerVerdict::kReadmit);
  EXPECT_EQ(board.state_of(1), core::ProgressBoard::WorkerState::kAlive);
  board.release();
}

TEST(ProgressBoardElastic, QuarantineHoldsTheStopUntilReadmittedOrFenced) {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.staleness_bound_iterations = 5.0;
  policy.readmit_staleness_iterations = 3.0;
  policy.min_silence_seconds = 0.05;
  policy.evict_after_violations = 3;
  constexpr std::int64_t kTarget = 100;
  constexpr std::int64_t kLife = core::ProgressBoard::kFirstIncarnation;

  // The quarantined slot is resolved by readmission, then (on a fresh
  // board) by the heartbeat fence; either resolution releases the stop.
  for (const bool fence : {false, true}) {
    SCOPED_TRACE(fence ? "fenced" : "readmitted");
    smb::SmbServer server;
    core::ProgressBoard board(server, 45, 2, /*create=*/true);
    // Worker 1 reports once and goes silent while worker 0 runs to its
    // target, so the sweep quarantines worker 1.
    board.report(1, 1, kLife);
    for (std::int64_t i = 1; i <= kTarget; ++i) {
      board.report(0, i, kLife);
      std::this_thread::sleep_for(std::chrono::milliseconds(i == kTarget / 2 ? 150 : 1));
    }
    const std::vector<elastic::StragglerTransition> demoted =
        board.sweep_stragglers(policy);
    ASSERT_EQ(demoted.size(), 1u);
    ASSERT_EQ(demoted[0].verdict, StragglerVerdict::kQuarantine);

    // Worker 0 is alive and at its target, but worker 1's fate is open.
    EXPECT_FALSE(board.should_stop(core::TerminationCriterion::kMasterFinishes, 0, kTarget,
                                   kTarget, /*heartbeat_timeout_seconds=*/0.0, kLife));
    EXPECT_FALSE(board.stop_raised());

    if (fence) {
      // Worker 1 has been silent for >= 0.25 s; worker 0 just reported.
      EXPECT_EQ(board.sweep_dead(/*timeout_seconds=*/0.2), 1);
      EXPECT_TRUE(board.is_dead(1));
    } else {
      board.report(1, 2, kLife);
      const std::vector<elastic::StragglerTransition> readmitted =
          board.sweep_stragglers(policy);
      ASSERT_EQ(readmitted.size(), 1u);
      EXPECT_EQ(readmitted[0].verdict, StragglerVerdict::kReadmit);
    }
    EXPECT_FALSE(board.any_quarantined());
    EXPECT_TRUE(board.should_stop(core::TerminationCriterion::kMasterFinishes, 0, kTarget,
                                  kTarget, /*heartbeat_timeout_seconds=*/0.0, kLife));
    EXPECT_TRUE(board.stop_raised());
    board.release();
  }
}

TEST(ProgressBoardElastic, RepeatedViolationsEvict) {
  smb::SmbServer server;
  core::ProgressBoard board(server, 44, 2, /*create=*/true);
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.staleness_bound_iterations = 5.0;
  policy.min_silence_seconds = 0.05;
  policy.evict_after_violations = 1;  // first violation evicts outright

  board.report(1, 1, core::ProgressBoard::kFirstIncarnation);
  for (std::int64_t i = 1; i <= 50; ++i) {
    board.report(0, i, core::ProgressBoard::kFirstIncarnation);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  for (std::int64_t i = 51; i <= 100; ++i) {
    board.report(0, i, core::ProgressBoard::kFirstIncarnation);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<elastic::StragglerTransition> transitions =
      board.sweep_stragglers(policy);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].verdict, StragglerVerdict::kEvict);
  EXPECT_EQ(board.state_of(1), core::ProgressBoard::WorkerState::kEvicted);
  board.release();
}

// --- simulated twin --------------------------------------------------------

TEST(SimElastic, JoinsAndDrainsAreDeterministicAndFingerprinted) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 8, 5});
  plan.add({MembershipEventKind::kJoin, 9, 12});
  plan.add({MembershipEventKind::kDrain, 2, 20});

  core::SimShmCaffeOptions options;
  options.workers = 8;
  options.group_size = 1;
  options.iterations = 60;
  options.smb_servers = 2;
  options.membership = &plan;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(options);

  EXPECT_EQ(timing.joined_workers, (std::vector<int>{8, 9}));
  EXPECT_EQ(timing.drained_workers, std::vector<int>{2});
  EXPECT_EQ(timing.rebalances, 3);
  EXPECT_GT(timing.completed_worker_iterations,
            static_cast<std::int64_t>(8) * options.iterations);

  // Everything planned executed, so the executed list is the plan's.
  const MembershipPolicy policy;
  EXPECT_EQ(common::first_divergence(
                timing.membership_events,
                std::optional(elastic::membership_schedule(&plan, nullptr, policy, 8))),
            "");

  const cluster::PlatformTiming again = core::simulate_shmcaffe(options);
  EXPECT_EQ(again.makespan, timing.makespan);
  EXPECT_EQ(common::first_divergence(again.membership_events, timing.membership_events), "");
}

TEST(SimElastic, StallChainsQuarantineThenEvict) {
  FaultPlan faults;
  for (std::int64_t it : {5, 15}) {
    FaultEvent stall;
    stall.kind = FaultKind::kWorkerStall;
    stall.target = 1;
    stall.iteration = it;
    stall.duration_seconds = 0.5;
    faults.add(stall);
  }
  const FaultInjector injector(faults);

  core::SimShmCaffeOptions options;
  options.workers = 4;
  options.group_size = 1;
  options.iterations = 40;
  options.faults = &injector;
  options.membership_policy.straggler_detection = true;
  options.membership_policy.quarantine_stall_seconds = 0.35;
  options.membership_policy.evict_after_violations = 2;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(options);

  // First stall: quarantine + readmit.  Second: eviction cuts the worker's
  // run short.
  EXPECT_EQ(timing.quarantine_events, 1);
  EXPECT_LT(timing.completed_worker_iterations,
            static_cast<std::int64_t>(4) * options.iterations);
  EXPECT_EQ(common::first_divergence(timing.membership_events,
                                     std::optional(elastic::membership_schedule(
                                         nullptr, &faults, options.membership_policy, 4))),
            "");
}

TEST(SimElastic, HeterogeneityslowsTheCohortAndViolatesStaleness) {
  core::SimShmCaffeOptions uniform;
  uniform.workers = 24;
  uniform.group_size = 1;
  uniform.iterations = 40;
  uniform.smb_servers = 2;
  uniform.membership_policy.straggler_detection = true;
  uniform.membership_policy.staleness_bound_iterations = 5.0;
  // Planning bound far above any injected stall: no quarantine chains, just
  // the staleness accounting.
  uniform.membership_policy.quarantine_stall_seconds = 1e9;
  const cluster::PlatformTiming flat = core::simulate_shmcaffe(uniform);

  core::SimShmCaffeOptions skewed = uniform;
  skewed.heterogeneity.slow_fraction = 0.25;
  skewed.heterogeneity.compute_multiplier = 3.0;
  skewed.heterogeneity.nic_multiplier = 2.0;
  const cluster::PlatformTiming het = core::simulate_shmcaffe(skewed);

  EXPECT_GT(het.makespan, flat.makespan);
  // A single-shard asynchronous cohort spreads a little even when uniform;
  // planted 3x-slow machines fall much further behind the cohort maximum.
  EXPECT_GT(het.staleness_violations, flat.staleness_violations);

  // The planted-slow selection is a pure function of (seed, worker).
  int slow = 0;
  for (int w = 0; w < 24; ++w) {
    EXPECT_EQ(skewed.heterogeneity.is_slow(w), skewed.heterogeneity.is_slow(w));
    if (skewed.heterogeneity.is_slow(w)) ++slow;
  }
  EXPECT_GT(slow, 0);
  EXPECT_LT(slow, 24);
}

TEST(SimElastic, ValidatesHybridGroupsAndJoinSlots) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 8, 5});
  core::SimShmCaffeOptions options;
  options.workers = 8;
  options.group_size = 2;
  options.membership = &plan;
  EXPECT_THROW((void)core::simulate_shmcaffe(options), std::invalid_argument);

  MembershipPlan bad;
  bad.add({MembershipEventKind::kJoin, 2, 5});  // below the initial cohort
  core::SimShmCaffeOptions low;
  low.workers = 8;
  low.group_size = 1;
  low.membership = &bad;
  EXPECT_THROW((void)core::simulate_shmcaffe(low), std::invalid_argument);
}

// --- elastic baseline star -------------------------------------------------

TEST(SimPlatformsElastic, CaffeMpiHonoursThePlanRingsIgnoreIt) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 5});
  plan.add({MembershipEventKind::kDrain, 1, 15});

  baselines::SimPlatformOptions options;
  options.workers = 4;
  options.iterations = 40;
  options.membership = &plan;

  const cluster::PlatformTiming star = baselines::simulate_caffe_mpi(options);
  EXPECT_EQ(star.joined_workers, std::vector<int>{4});
  EXPECT_EQ(star.drained_workers, std::vector<int>{1});
  EXPECT_EQ(star.rebalances, 2);
  const MembershipPolicy policy;
  EXPECT_EQ(common::first_divergence(
                star.membership_events,
                std::optional(elastic::membership_schedule(&plan, nullptr, policy, 4))),
            "");

  // The fixed rings cannot resize: the plan is ignored, counters stay zero
  // and no membership is tracked.
  const cluster::PlatformTiming ring = baselines::simulate_mpicaffe(options);
  EXPECT_TRUE(ring.joined_workers.empty());
  EXPECT_FALSE(ring.membership_events.has_value());
  const cluster::PlatformTiming nccl = baselines::simulate_caffe(options);
  EXPECT_TRUE(nccl.joined_workers.empty());
}

TEST(SimPlatformsElastic, HeterogeneitySlowsEverySynchronousPlatform) {
  baselines::SimPlatformOptions uniform;
  uniform.workers = 8;
  uniform.iterations = 30;

  baselines::SimPlatformOptions skewed = uniform;
  skewed.heterogeneity.slow_fraction = 0.25;
  skewed.heterogeneity.compute_multiplier = 3.0;
  skewed.heterogeneity.nic_multiplier = 2.0;

  EXPECT_GT(baselines::simulate_caffe(skewed).makespan,
            baselines::simulate_caffe(uniform).makespan);
  EXPECT_GT(baselines::simulate_caffe_mpi(skewed).makespan,
            baselines::simulate_caffe_mpi(uniform).makespan);
  EXPECT_GT(baselines::simulate_mpicaffe(skewed).makespan,
            baselines::simulate_mpicaffe(uniform).makespan);
}

// --- end-to-end: functional trainer ----------------------------------------

core::DistTrainOptions elastic_train_options() {
  core::DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 3;
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
  options.epochs = 3;
  options.heartbeat_timeout_seconds = 0.5;
  return options;
}

TEST(ElasticEndToEnd, JoinAndDrainReportedFromBothStacks) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 3, 4});
  plan.add({MembershipEventKind::kDrain, 1, 30});

  core::DistTrainOptions options = elastic_train_options();
  options.membership = &plan;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.joined_workers, std::vector<int>{3});
  EXPECT_EQ(result.drained_workers, std::vector<int>{1});
  EXPECT_EQ(result.rebalances, 2);
  ASSERT_EQ(result.worker_outcomes.size(), 4u);
  EXPECT_EQ(result.worker_outcomes[1], core::WorkerOutcome::kDrained);
  EXPECT_EQ(result.worker_outcomes[0], core::WorkerOutcome::kFinished);
  EXPECT_EQ(result.worker_outcomes[3], core::WorkerOutcome::kFinished);
  EXPECT_GT(result.final_accuracy, 0.4);

  // The simulated twin consumes the identical plan and executes the same
  // membership changes.
  core::SimShmCaffeOptions sim;
  sim.workers = 3;
  sim.group_size = 1;
  sim.iterations = 96;
  sim.membership = &plan;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  ASSERT_TRUE(result.membership_events.has_value());
  EXPECT_EQ(common::first_divergence(timing.membership_events, result.membership_events), "");
  EXPECT_EQ(timing.joined_workers, result.joined_workers);
  EXPECT_EQ(timing.drained_workers, result.drained_workers);
  EXPECT_EQ(timing.rebalances, result.rebalances);
}

TEST(ElasticEndToEnd, JoinDuringFailover) {
  // A worker cold-joins while the SMB layer is failing over to its backup
  // replica: the join must retry its way through the pause and succeed.
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 3, 4});

  FaultPlan faults;
  FaultEvent fail_primary;
  fail_primary.kind = FaultKind::kServerFailStop;
  fail_primary.target = 0;  // shard 0, replica 0 — the active primary
  fail_primary.start_seconds = 0.05;
  faults.add(fail_primary);
  const FaultInjector injector(faults);

  core::DistTrainOptions options = elastic_train_options();
  options.membership = &plan;
  options.smb_replicas = 2;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.smb_failovers, 1);
  EXPECT_EQ(result.joined_workers, std::vector<int>{3});
  EXPECT_EQ(result.worker_outcomes[3], core::WorkerOutcome::kFinished);

  core::SimShmCaffeOptions sim;
  sim.workers = 3;
  sim.group_size = 1;
  sim.iterations = 96;
  sim.smb_replicas = 2;
  sim.membership = &plan;
  sim.faults = &injector;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  EXPECT_EQ(common::first_divergence(timing.membership_events, result.membership_events), "");
  EXPECT_EQ(common::first_divergence(timing.recovery_events, result.recovery_events), "");
  EXPECT_EQ(timing.smb_failovers, result.smb_failovers);
}

TEST(ElasticEndToEnd, DrainWhileCheckpointing) {
  const std::string dir = ::testing::TempDir() + "shmcaffe_elastic_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  MembershipPlan plan;
  plan.add({MembershipEventKind::kDrain, 1, 20});

  core::DistTrainOptions options = elastic_train_options();
  options.workers = 2;
  options.membership = &plan;
  options.checkpoint.directory = dir;
  options.checkpoint.interval_iterations = 16;
  const core::TrainResult result = core::train_shmcaffe(options);

  // The drain must not corrupt the checkpoint stream: checkpoints keep
  // landing and the run finishes on the survivor.
  EXPECT_GE(result.checkpoints_taken, 1);
  EXPECT_EQ(result.drained_workers, std::vector<int>{1});
  EXPECT_EQ(result.worker_outcomes[0], core::WorkerOutcome::kFinished);
  EXPECT_EQ(result.worker_outcomes[1], core::WorkerOutcome::kDrained);
  const MembershipPolicy policy;
  EXPECT_EQ(common::first_divergence(
                result.membership_events,
                std::optional(elastic::membership_schedule(&plan, nullptr, policy, 2))),
            "");
}

/// Policy used by the straggler end-to-end runs: the stall comfortably
/// clears both the absolute silence guard and the projected-staleness bound
/// at mlp iteration rates (hundreds per second), while the heartbeat
/// timeout stays far above the stall so the sweep quarantines instead of
/// fencing.
MembershipPolicy e2e_straggler_policy() {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.staleness_bound_iterations = 30.0;
  policy.readmit_staleness_iterations = 10.0;
  policy.min_silence_seconds = 0.2;
  policy.quarantine_stall_seconds = 0.6;
  policy.evict_after_violations = 3;
  return policy;
}

TEST(ElasticEndToEnd, QuarantineCatchUpReadmit) {
  FaultPlan faults;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 5;
  stall.duration_seconds = 0.6;
  faults.add(stall);
  const FaultInjector injector(faults);

  core::DistTrainOptions options = elastic_train_options();
  // Long enough that the run is still going when the straggler wakes, so
  // the catch-up readmission actually happens before termination.
  options.epochs = 15;
  options.membership_policy = e2e_straggler_policy();
  options.heartbeat_timeout_seconds = 3.0;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  // One stall, one demotion; the worker caught up, was readmitted, and
  // finished — never fenced, never evicted.
  EXPECT_EQ(result.quarantine_events, 1);
  ASSERT_EQ(result.worker_outcomes.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(result.worker_outcomes[static_cast<std::size_t>(w)],
              core::WorkerOutcome::kFinished)
        << "worker " << w;
  }

  core::SimShmCaffeOptions sim;
  sim.workers = 3;
  sim.group_size = 1;
  sim.iterations = 480;
  sim.membership_policy = options.membership_policy;
  sim.faults = &injector;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  EXPECT_EQ(timing.quarantine_events, result.quarantine_events);
  ASSERT_TRUE(result.membership_events.has_value());
  EXPECT_EQ(common::first_divergence(timing.membership_events, result.membership_events), "");
}

TEST(ElasticEndToEnd, AcceptanceJoinDrainQuarantineCrashInOneRun) {
  // The PR's acceptance run: in ONE training run a worker cold-joins, a
  // worker drains voluntarily, a worker straggles into quarantine and is
  // readmitted after catching up, and a worker crashes and is re-admitted
  // by the recovery layer — while the SMB primary fails over.  Both stacks
  // must execute identical membership and recovery lists.
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 6});
  plan.add({MembershipEventKind::kDrain, 1, 200});

  FaultPlan faults;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 8;
  stall.duration_seconds = 0.8;
  faults.add(stall);
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 3;
  crash.iteration = 10;
  faults.add(crash);
  FaultEvent fail_primary;
  fail_primary.kind = FaultKind::kServerFailStop;
  fail_primary.target = 0;
  fail_primary.start_seconds = 0.06;
  faults.add(fail_primary);
  const FaultInjector injector(faults);

  core::DistTrainOptions options = elastic_train_options();
  options.workers = 4;
  // 360 iterations/worker.  The run cannot terminate before the crashed
  // worker is fenced (until then it either contributes its frozen count to
  // the mean, and skew pacing parks the survivors, or it is quarantined,
  // which holds the stop), so every wall-clock event — the 0.8s stall, its
  // readmission, the 2s fence — fits however fast the host trains.
  options.epochs = 15;
  options.membership = &plan;
  options.membership_policy = e2e_straggler_policy();
  options.smb_replicas = 2;
  options.recovery.respawn_crashed = true;
  options.heartbeat_timeout_seconds = 2.0;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.joined_workers, std::vector<int>{4});
  EXPECT_EQ(result.drained_workers, std::vector<int>{1});
  // At least the planned stall demotion; worker 3's dying silence may trip
  // the detector too before the heartbeat fence declares it dead (the
  // detector's silence guard is far below the fencing timeout) — that
  // unplanned quarantine is exactly what the executed-event filter discards,
  // so the executed lists below still match event for event.
  EXPECT_GE(result.quarantine_events, 1);
  EXPECT_EQ(result.recovered_workers, std::vector<int>{3});
  EXPECT_EQ(result.smb_failovers, 1);
  ASSERT_EQ(result.worker_outcomes.size(), 5u);
  EXPECT_EQ(result.worker_outcomes[1], core::WorkerOutcome::kDrained);
  EXPECT_EQ(result.worker_outcomes[2], core::WorkerOutcome::kFinished);
  EXPECT_EQ(result.worker_outcomes[4], core::WorkerOutcome::kFinished);

  core::SimShmCaffeOptions sim;
  sim.workers = 4;
  sim.group_size = 1;
  sim.iterations = 360;
  sim.smb_replicas = 2;
  sim.recovery = options.recovery;
  sim.membership = &plan;
  sim.membership_policy = options.membership_policy;
  sim.faults = &injector;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  ASSERT_TRUE(result.membership_events.has_value());
  EXPECT_EQ(common::first_divergence(timing.membership_events, result.membership_events), "");
  EXPECT_EQ(common::first_divergence(timing.recovery_events, result.recovery_events), "");
  EXPECT_EQ(timing.joined_workers, result.joined_workers);
  EXPECT_EQ(timing.drained_workers, result.drained_workers);
  EXPECT_EQ(timing.quarantine_events, 1);  // the sim models the planned stall only
}

TEST(TrainOptions, ElasticValidation) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 5});

  core::DistTrainOptions hybrid = elastic_train_options();
  hybrid.workers = 4;
  hybrid.group_size = 2;
  hybrid.membership = &plan;
  EXPECT_THROW((void)core::train_shmcaffe(hybrid), std::invalid_argument);

  MembershipPlan bad;
  bad.add({MembershipEventKind::kJoin, 1, 5});  // collides with a live rank
  core::DistTrainOptions low = elastic_train_options();
  low.membership = &bad;
  EXPECT_THROW((void)core::train_shmcaffe(low), std::invalid_argument);
}

}  // namespace
}  // namespace shmcaffe
