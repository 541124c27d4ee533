// Unit tests: Selective Suspension and Tunable Selective Suspension
// (Section IV) — including the two-task suspension-count law of Section IV-A
// (Figs. 4-6).
#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"
#include "sched/overhead.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {
namespace {

using test::J;
using test::makeTrace;

SsConfig ssConfig(double sf) {
  SsConfig cfg;
  cfg.suspensionFactor = sf;
  return cfg;
}

TEST(SS, ConfigRejectsBadValues) {
  SsConfig cfg;
  cfg.suspensionFactor = 0.5;
  EXPECT_THROW(SelectiveSuspension{cfg}, InvariantError);
  cfg = {};
  cfg.preemptionInterval = 0;
  EXPECT_THROW(SelectiveSuspension{cfg}, InvariantError);
}

TEST(SS, NameReflectsTuning) {
  EXPECT_EQ(SelectiveSuspension(ssConfig(2.0)).name(), "SS(SF=2)");
  SsConfig cfg = ssConfig(1.5);
  cfg.tssLimits.emplace();
  cfg.tssLimits->fill(10.0);
  EXPECT_EQ(SelectiveSuspension(cfg).name(), "TSS(SF=1.5)");
}

TEST(SS, SimpleStreamRunsEverything) {
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(8, {{0, 50, 4}, {10, 50, 4}, {20, 50, 8}});
  sim::Simulator s(trace, policy);
  s.run();
  for (JobId i = 0; i < 3; ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
}

TEST(SS, ShortJobPreemptsLongJob) {
  // Long job (estimate 10 h) hogs the machine; a short job (60 s estimate)
  // arrives and its xfactor crosses SF * 1 quickly: it must preempt.
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 60, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(s.outcome(0).suspendCount, 1u);
  // Short job's xfactor reaches 2 after waiting 60 s; the next 60 s tick
  // fires the preemption. It must finish LONG before the long job's end.
  EXPECT_LT(s.outcome(1).finish, 1000);
  // The long job still completes (reclaiming its processors).
  EXPECT_GE(s.outcome(0).finish, 36000);
}

TEST(SS, PreemptionRequiresPriorityRatio) {
  // Short job with estimate 3600: after 60 s its xfactor is only ~1.016 —
  // far below SF x 1. It must NOT preempt; it waits for the long job.
  // (Long job runtime kept small so the test terminates quickly.)
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 1000, 4}, {10, 900, 4, 3600}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).suspendCount, 0u);
  EXPECT_EQ(s.outcome(1).firstStart, 1000);
}

TEST(SS, SuspendedJobResumesOnSameProcessors) {
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 60, 4}});
  sim::Simulator s(trace, policy);
  // Track the victim's processors across suspension.
  const test::FinishedExecLog finished(s);
  s.run();
  EXPECT_EQ(finished[0].procs.count(), 4u);  // final set recorded
  EXPECT_EQ(s.state(0), sim::JobState::Finished);
}

TEST(SS, HalfWidthRuleBlocksNarrowPreemptor) {
  // A 1-proc job may not suspend a 4-proc job (1 * 2 < 4), no matter its
  // priority.
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 3000, 4}, {10, 30, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).suspendCount, 0u);
  EXPECT_GE(s.outcome(1).firstStart, 3000);
}

TEST(SS, HalfWidthRuleAllowsHalfWidePreemptor) {
  // A 2-proc job may suspend a 4-proc job (2 * 2 >= 4).
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 30, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(s.outcome(0).suspendCount, 1u);
  EXPECT_LT(s.outcome(1).finish, 2000);
}

TEST(SS, HalfWidthRuleCanBeDisabled) {
  SsConfig cfg = ssConfig(2.0);
  cfg.halfWidthRule = false;
  SelectiveSuspension policy(cfg);
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 30, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(s.outcome(0).suspendCount, 1u);
  EXPECT_LT(s.outcome(1).finish, 2000);
}

TEST(SS, BackfillsPastBlockedHighPriorityJob) {
  // Wide queued job cannot start; a narrower lower-priority job that fits
  // must start anyway (backfilling without guarantees).
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(8, {{0, 600, 6}, {10, 600, 8}, {20, 60, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(2).firstStart, 20);  // started beside job0
}

TEST(SS, TssLimitProtectsVictim) {
  // TSS with a tiny limit for the long job's category: its priority (1.0+)
  // is already >= the limit, so preemption is disabled and the short job
  // must wait despite a huge xfactor.
  SsConfig cfg = ssConfig(2.0);
  cfg.tssLimits.emplace();
  cfg.tssLimits->fill(0.5);  // everything protected immediately
  SelectiveSuspension policy(cfg);
  const auto trace = makeTrace(4, {{0, 2000, 4}, {10, 30, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).suspendCount, 0u);
  EXPECT_GE(s.outcome(1).firstStart, 2000);
}

TEST(SS, TssHighLimitBehavesLikePlainSS) {
  SsConfig cfg = ssConfig(2.0);
  cfg.tssLimits.emplace();
  cfg.tssLimits->fill(1e18);
  SelectiveSuspension tuned(cfg);
  SelectiveSuspension plain(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 60, 4}});
  sim::Simulator a(trace, tuned);
  a.run();
  sim::Simulator b(trace, plain);
  b.run();
  EXPECT_EQ(a.outcome(1).finish, b.outcome(1).finish);
  EXPECT_EQ(a.totalSuspensions(), b.totalSuspensions());
}

TEST(SS, PreemptionsCountedByPolicy) {
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 60, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(policy.preemptionsInitiated(), s.totalSuspensions());
  EXPECT_GE(policy.preemptionsInitiated(), 1u);
}

TEST(SS, WidestVictimsChosenFirst) {
  // Preemptor needs 6 procs; eligible victims: 4-proc and two 1-proc jobs
  // (all long, same priority). Suspending the 4-proc + free 2 suffices; the
  // widest-first rule means the pair of 1-proc jobs survives.
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(
      8, {{0, 36000, 4}, {0, 36000, 1}, {0, 36000, 1}, {10, 60, 6}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(s.outcome(0).suspendCount, 1u);
  EXPECT_EQ(s.outcome(1).suspendCount, 0u);
  EXPECT_EQ(s.outcome(2).suspendCount, 0u);
}

// --- The two-task analysis of Section IV-A ----------------------------------
//
// Two identical tasks, each needing the whole machine, submitted together.
// With suspension factor s, the number of suspensions n is the smallest n
// with s^(n+1) >= 2  =>  n = ceil(log2 / log s) - 1 (for 1 < s <= 2).
// s = 2 -> 0 suspensions; s = sqrt(2) -> 1; s = 2^(1/3) -> 2.

std::uint64_t twoTaskSuspensions(double sf, Time length) {
  SelectiveSuspension policy(ssConfig(sf));
  const auto trace = makeTrace(8, {{0, length, 8}, {0, length, 8}});
  sim::Simulator s(trace, policy);
  s.run();
  return s.totalSuspensions();
}

TEST(SSTwoTask, SfTwoMeansNoSuspension) {
  EXPECT_EQ(twoTaskSuspensions(2.0, 7200), 0u);
}

TEST(SSTwoTask, SfAboveTwoAlsoNoSuspension) {
  EXPECT_EQ(twoTaskSuspensions(5.0, 7200), 0u);
}

TEST(SSTwoTask, SqrtTwoMeansAtMostOne) {
  // s = sqrt(2): the waiting task preempts once; after the swap the other
  // task would need xfactor ratio sqrt(2) again, which cannot recur before
  // the running task completes.
  const auto n = twoTaskSuspensions(std::sqrt(2.0), 7200);
  EXPECT_EQ(n, 1u);
}

TEST(SSTwoTask, CubeRootOfTwoMeansTwo) {
  const auto n = twoTaskSuspensions(std::cbrt(2.0), 14400);
  EXPECT_EQ(n, 2u);
}

TEST(SSTwoTask, SuspensionCountMonotoneInSf) {
  const Time len = 7200;
  std::uint64_t prev = 1000;
  for (double sf : {1.1, 1.26, 1.42, 2.0}) {
    const auto n = twoTaskSuspensions(sf, len);
    EXPECT_LE(n, prev) << "sf=" << sf;
    prev = n;
  }
}

TEST(SSTwoTask, BothTasksFinishAndAlternate) {
  SelectiveSuspension policy(ssConfig(1.2));
  const auto trace = makeTrace(8, {{0, 3600, 8}, {0, 3600, 8}});
  sim::Simulator s(trace, policy);
  s.run();
  // Total work conserved: last finish >= 2 x length.
  EXPECT_GE(s.lastFinish(), 7200);
  EXPECT_EQ(s.state(0), sim::JobState::Finished);
  EXPECT_EQ(s.state(1), sim::JobState::Finished);
}

// --- Reentry (Section IV-C) --------------------------------------------------

TEST(SSReentry, SuspendedJobPreemptsOccupantOfItsProcessors) {
  // Long job A runs on the whole machine, short job B preempts it. While A
  // is suspended, medium job C (arriving later) takes over when B finishes.
  // A's xfactor keeps growing; eventually A preempts C through the reentry
  // path (no half-width requirement) and completes.
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace =
      makeTrace(4, {{0, 7200, 4}, {10, 60, 4}, {500, 7000, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.state(0), sim::JobState::Finished);
  EXPECT_GE(s.outcome(0).suspendCount, 1u);
  // If A reentered by preempting C, C was suspended at least once.
  // (A could also simply wait for C to finish; accept either, but the sum
  // of completions must conserve work.)
  EXPECT_GE(s.lastFinish(), 7200 + 60);
}

TEST(SSReentry, ExactProcessorSetReclaimed) {
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(8, {{0, 36000, 4}, {10, 60, 4}});
  sim::Simulator s(trace, policy);
  const test::FinishedExecLog finished(s);
  s.run();
  // Victim held processors {0-3}; after resume, at its completion its set
  // must still be {0-3}.
  EXPECT_EQ(finished[0].procs, sim::ProcSet::firstN(4));
}

// --- Claims under an overhead model ------------------------------------------

TEST(SSOverhead, PreemptorWaitsForDrainThenStarts) {
  FixedOverhead overhead(30, 30);
  SelectiveSuspension policy(ssConfig(2.0));
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 60, 4}});
  sim::Simulator::Config config;
  config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  s.run();
  EXPECT_GE(s.outcome(0).suspendCount, 1u);
  // The short job ran after the 30 s write-out of the victim.
  EXPECT_GT(s.outcome(1).firstStart, s.job(1).submit);
  EXPECT_EQ(s.state(1), sim::JobState::Finished);
  // Victim paid write-out + read-back.
  EXPECT_GE(s.outcome(0).overheadTotal(), 60);
}

TEST(SSOverhead, EverythingFinishesUnderHeavyPreemption) {
  FixedOverhead overhead(10, 10);
  SelectiveSuspension policy(ssConfig(1.5));
  std::vector<J> jobs;
  jobs.push_back({0, 20000, 8});
  for (int i = 0; i < 10; ++i) jobs.push_back({100 + i * 400, 50, 4});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator::Config config;
  config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  s.run();
  for (JobId i = 0; i < trace.jobs.size(); ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
  s.auditState();
}

}  // namespace
}  // namespace sps::sched
