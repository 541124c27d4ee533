// Unit tests: conservative backfilling (Section II-A.1).
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sched/conservative.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {
namespace {

using test::J;
using test::makeTrace;

TEST(Conservative, BackfillsIntoHole) {
  // Machine 4. Job0: 3 procs, 100 s. Job1: 4 procs -> reserved at 100.
  // Job2: 1 proc, 50 s — fits beside job0 without delaying job1.
  ConservativeBackfill policy;
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(2).firstStart, 2);     // backfilled immediately
  EXPECT_EQ(s.outcome(1).firstStart, 100);   // reservation honoured
}

TEST(Conservative, BackfillMustNotDelayAnyReservation) {
  // Job2 is small enough in procs but too long to finish before job1's
  // anchor; starting it would delay job1 -> it must wait.
  ConservativeBackfill policy;
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 200, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(s.outcome(2).firstStart, 100);  // not backfilled before job1
  EXPECT_EQ(s.outcome(1).firstStart, 100);  // job1's guarantee intact
}

TEST(Conservative, LaterJobCannotDelayEarlierReservation) {
  // Three queued wide jobs get stacked reservations in order.
  ConservativeBackfill policy;
  const auto trace =
      makeTrace(4, {{0, 100, 4}, {1, 100, 4}, {2, 100, 4}, {3, 100, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 100);
  EXPECT_EQ(s.outcome(2).firstStart, 200);
  EXPECT_EQ(s.outcome(3).firstStart, 300);
}

TEST(Conservative, CompressionOnEarlyCompletion) {
  // Job0 estimates 1000 but actually runs 100: job1's reservation at 1000
  // must compress to 100 when job0 finishes.
  ConservativeBackfill policy;
  const auto trace = makeTrace(4, {{0, 100, 4, 1000}, {1, 50, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 100);
}

TEST(Conservative, CompressionPreservesOrderWhenNoHole) {
  // After early completion, released jobs re-anchor in guarantee order.
  ConservativeBackfill policy;
  const auto trace = makeTrace(
      4, {{0, 100, 4, 500}, {1, 100, 4}, {2, 100, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 100);
  EXPECT_EQ(s.outcome(2).firstStart, 200);
}

TEST(Conservative, GuaranteeOfQueuedJobVisible) {
  ConservativeBackfill policy;
  const auto trace = makeTrace(4, {{0, 100, 4, 100}, {1, 50, 4}});
  Time guarantee = kNoTime;
  // Probe the guarantee mid-run via a scripted check at arrival of job 1:
  // easiest is to re-run the allocation logic: job1 should be anchored at
  // job0's estimated end (100).
  sim::Simulator s(trace, policy);
  s.run();
  guarantee = s.outcome(1).firstStart;
  EXPECT_EQ(guarantee, 100);
  EXPECT_EQ(policy.guaranteeOf(1), kNoTime);  // consumed once started
}

TEST(Conservative, SequentialStreamKeepsMachineBusy) {
  // Narrow jobs should pack the machine tightly (no FCFS blocking).
  ConservativeBackfill policy;
  std::vector<J> jobs;
  for (int i = 0; i < 16; ++i) jobs.push_back({0, 100, 1});
  jobs.push_back({1, 100, 16});     // wide job reserved at 100
  for (int i = 0; i < 8; ++i) jobs.push_back({2, 50, 1});  // backfill? no:
  const auto trace = makeTrace(16, jobs);
  sim::Simulator s(trace, policy);
  s.run();
  // The 16 sequential jobs all start at 0.
  for (JobId i = 0; i < 16; ++i) EXPECT_EQ(s.outcome(i).firstStart, 0);
  // The wide job starts exactly at 100.
  EXPECT_EQ(s.outcome(16).firstStart, 100);
  // The trailing 50 s jobs cannot run before 100 (they would delay the wide
  // job: every processor is busy until then), so they follow it.
  for (JobId i = 17; i < 25; ++i) EXPECT_GE(s.outcome(i).firstStart, 100);
}

TEST(Conservative, EstimateOverrunImpossibleByConstruction) {
  // estimate >= runtime is enforced by validateTrace; conservative relies on
  // it. A job finishing exactly at its estimate must not break anything.
  ConservativeBackfill policy;
  const auto trace = makeTrace(4, {{0, 100, 4, 100}, {0, 100, 4, 100}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).finish, 200);
}

TEST(Conservative, NoSuspensionsEver) {
  ConservativeBackfill policy;
  const auto trace = makeTrace(8, {{0, 50, 2}, {5, 50, 8}, {9, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.totalSuspensions(), 0u);
}

}  // namespace
}  // namespace sps::sched
