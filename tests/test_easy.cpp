// Unit tests: aggressive (EASY) backfilling (Section II-A.2) — the paper's
// No-Suspension baseline.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {
namespace {

using test::J;
using test::makeTrace;

TEST(Easy, StartsHeadWhenItFits) {
  EasyBackfill policy;
  const auto trace = makeTrace(8, {{0, 100, 4}, {1, 100, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).firstStart, 0);
  EXPECT_EQ(s.outcome(1).firstStart, 1);
}

TEST(Easy, BackfillByEarlyTermination) {
  // Head (job1) needs the full machine at t=100. Job2 terminates by then:
  // eligible via condition (1).
  EasyBackfill policy;
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(2).firstStart, 2);
  EXPECT_EQ(s.outcome(1).firstStart, 100);
  EXPECT_EQ(policy.backfillCount(), 1u);
}

TEST(Easy, BackfillByExtraProcessors) {
  // Machine 8. Job0: 4 procs to t=100. Head job1: 6 procs -> shadow 100,
  // extra = 8 - 6 = 2. Job2: 2 procs, long — eligible via condition (2).
  EasyBackfill policy;
  const auto trace = makeTrace(8, {{0, 100, 4}, {1, 100, 6}, {2, 500, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(2).firstStart, 2);
  EXPECT_EQ(s.outcome(1).firstStart, 100);  // head not delayed
}

TEST(Easy, BackfillRejectedWhenItWouldDelayHead) {
  // Job2: 3 procs and runs past the shadow — would steal the head's procs.
  EasyBackfill policy;
  const auto trace = makeTrace(8, {{0, 100, 4}, {1, 100, 6}, {2, 500, 3}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 100);     // head on time
  EXPECT_GE(s.outcome(2).firstStart, 100);     // job2 had to wait
}

TEST(Easy, HeadJobCannotBeStarvedByStream) {
  // A continuous stream of small long jobs must not push the wide head
  // past its shadow time.
  EasyBackfill policy;
  std::vector<J> jobs;
  jobs.push_back({0, 100, 6});   // running
  jobs.push_back({1, 100, 8});   // head, shadow = 100
  for (int i = 0; i < 30; ++i) jobs.push_back({2 + i, 1000, 2});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 100);
}

TEST(Easy, SecondQueuedJobHasNoReservation) {
  // Unlike conservative: a backfill job may delay the *second* queued job.
  // Machine 4. Job0: 2 procs to 100. Job1(head): 4 procs, shadow 100.
  // Job2: 3 procs (queued behind head, no guarantee). Job3: 2 procs 100 s,
  // finishes at t=103 <= shadow -> backfills, delaying job2 past what a
  // conservative reservation would have given it.
  EasyBackfill policy;
  const auto trace =
      makeTrace(4, {{0, 100, 2}, {1, 100, 4}, {2, 100, 3}, {3, 97, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(3).firstStart, 3);    // aggressive backfill
  EXPECT_EQ(s.outcome(1).firstStart, 100);  // head unharmed
  EXPECT_GE(s.outcome(2).firstStart, 200);  // second queued job delayed
}

TEST(Easy, UsesEstimatesNotRuntimes) {
  // Job2's *estimate* (200) crosses the shadow even though its runtime (10)
  // does not: EASY must reject the backfill (condition (1) on estimates)
  // and condition (2) fails (3 > extra 0 since head takes everything).
  EasyBackfill policy;
  const auto trace = makeTrace(8, {{0, 100, 5}, {1, 100, 8}, {2, 10, 3, 200}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(s.outcome(2).firstStart, 100);
  EXPECT_EQ(s.outcome(1).firstStart, 100);
}

TEST(Easy, EarlyCompletionTriggersReschedule) {
  // Job0 estimates 1000, actually 50. On completion the head starts early.
  EasyBackfill policy;
  const auto trace = makeTrace(4, {{0, 50, 4, 1000}, {1, 100, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 50);
}

TEST(Easy, FifoAmongEqualJobs) {
  EasyBackfill policy;
  const auto trace =
      makeTrace(4, {{0, 100, 4}, {1, 100, 4}, {1, 100, 4}, {1, 100, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 100);
  EXPECT_EQ(s.outcome(2).firstStart, 200);
  EXPECT_EQ(s.outcome(3).firstStart, 300);
}

TEST(Easy, NoSuspensionsEver) {
  EasyBackfill policy;
  const auto trace = makeTrace(8, {{0, 50, 2}, {5, 50, 8}, {9, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.totalSuspensions(), 0u);
}

TEST(Easy, BackfillImprovesOverFcfsShape) {
  // The motivating scenario of Section II: EASY fills the FCFS hole.
  EasyBackfill policy;
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  // FCFS would start job2 at 200 (see test_fcfs); EASY starts it at t=2.
  EXPECT_EQ(s.outcome(2).firstStart, 2);
}

}  // namespace
}  // namespace sps::sched
