// Unit tests: FCFS scheduling.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sched/fcfs.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {
namespace {

using test::J;
using test::makeTrace;

TEST(Fcfs, RunsJobsInOrder) {
  FcfsScheduler policy;
  const auto trace = makeTrace(4, {{0, 100, 4}, {1, 10, 4}, {2, 10, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).firstStart, 0);
  EXPECT_EQ(s.outcome(1).firstStart, 100);
  EXPECT_EQ(s.outcome(2).firstStart, 110);
}

TEST(Fcfs, HeadOfLineBlocksSmallerJobs) {
  // Classic FCFS fragmentation: a wide head job leaves narrow followers
  // waiting even though processors are idle.
  FcfsScheduler policy;
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 10, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  // Job 2 (1 proc) could have run at t=2 next to job 0 (3 procs), but FCFS
  // holds it behind the 4-proc job 1.
  EXPECT_EQ(s.outcome(1).firstStart, 100);
  EXPECT_EQ(s.outcome(2).firstStart, 200);
}

TEST(Fcfs, ConcurrentJobsSharemachine) {
  FcfsScheduler policy;
  const auto trace = makeTrace(8, {{0, 100, 4}, {0, 100, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).firstStart, 0);
  EXPECT_EQ(s.outcome(1).firstStart, 0);
}

TEST(Fcfs, DrainsLongQueue) {
  FcfsScheduler policy;
  std::vector<J> jobs;
  for (int i = 0; i < 50; ++i)
    jobs.push_back({i, 10, 4});
  const auto trace = makeTrace(4, jobs);
  sim::Simulator s(trace, policy);
  s.run();
  // Strictly serial: each starts when the previous finishes.
  for (JobId i = 1; i < 50; ++i)
    EXPECT_EQ(s.outcome(i).firstStart, s.outcome(i - 1).finish);
}

TEST(Fcfs, NoSuspensionsEver) {
  FcfsScheduler policy;
  const auto trace = makeTrace(8, {{0, 50, 2}, {5, 50, 8}, {9, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.totalSuspensions(), 0u);
}

}  // namespace
}  // namespace sps::sched
