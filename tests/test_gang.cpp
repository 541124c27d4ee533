// Unit tests: gang scheduling (Ousterhout-matrix time slicing) — the
// Section II alternative to backfilling, built on the same suspend/resume
// machinery.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sched/gang.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {
namespace {

using test::J;
using test::makeTrace;

GangConfig cfg(Time quantum = 600, std::size_t slots = 4) {
  GangConfig c;
  c.slotQuantum = quantum;
  c.maxSlots = slots;
  return c;
}

TEST(Gang, ConfigRejectsBadValues) {
  GangConfig c;
  c.slotQuantum = 0;
  EXPECT_THROW(GangScheduler{c}, InvariantError);
  c = {};
  c.maxSlots = 0;
  EXPECT_THROW(GangScheduler{c}, InvariantError);
}

TEST(Gang, NameCarriesSlotCount) {
  EXPECT_EQ(GangScheduler(cfg(600, 3)).name(), "Gang(slots=3)");
}

TEST(Gang, SingleJobRunsWithoutSlicing) {
  GangScheduler policy(cfg());
  const auto trace = makeTrace(8, {{0, 5000, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).finish, 5000);
  EXPECT_EQ(s.outcome(0).suspendCount, 0u);
  EXPECT_EQ(policy.switches(), 0u);
}

TEST(Gang, CoResidentJobsShareOneSlot) {
  // Two 4-proc jobs fit one row of an 8-proc machine: no slicing.
  GangScheduler policy(cfg());
  const auto trace = makeTrace(8, {{0, 5000, 4}, {10, 5000, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(0).finish, 5000);
  EXPECT_EQ(s.outcome(1).finish, 5010);
  EXPECT_EQ(s.totalSuspensions(), 0u);
}

TEST(Gang, ConflictingJobsTimeSlice) {
  // Two machine-wide jobs: they alternate every quantum, each accruing
  // half the wall-clock, finishing around 2 x runtime.
  GangScheduler policy(cfg(600));
  const auto trace = makeTrace(8, {{0, 3600, 8}, {0, 3600, 8}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GT(policy.switches(), 5u);
  EXPECT_GE(s.totalSuspensions(), 5u);
  // Both finish near 2 x 3600 (within one quantum of slack).
  EXPECT_NEAR(static_cast<double>(s.outcome(0).finish), 7200.0, 601.0);
  EXPECT_NEAR(static_cast<double>(s.outcome(1).finish), 7200.0, 601.0);
}

TEST(Gang, SlicedJobResumesOnSameProcessors) {
  GangScheduler policy(cfg(600));
  const auto trace = makeTrace(8, {{0, 3600, 8}, {0, 3600, 8}});
  sim::Simulator s(trace, policy);
  const test::FinishedExecLog finished(s);
  s.run();
  EXPECT_EQ(finished[0].procs, sim::ProcSet::firstN(8));
  EXPECT_EQ(finished[1].procs, sim::ProcSet::firstN(8));
}

TEST(Gang, ShortJobGetsServiceDespiteLongRunner) {
  // The gang pitch: a short job arriving under a long machine-wide job
  // starts within ~a quantum, not after hours.
  GangScheduler policy(cfg(600));
  const auto trace = makeTrace(8, {{0, 36000, 8}, {100, 300, 8}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_LE(s.outcome(1).firstStart, 700);
  EXPECT_EQ(s.state(1), sim::JobState::Finished);
}

TEST(Gang, MatrixOverflowQueuesFifo) {
  // maxSlots = 2: the third machine-wide job waits in the FIFO queue until
  // a row frees.
  GangScheduler policy(cfg(600, 2));
  const auto trace =
      makeTrace(8, {{0, 1200, 8}, {0, 1200, 8}, {0, 1200, 8}});
  sim::Simulator s(trace, policy);
  s.run();
  // Job 2 cannot start until job 0 or 1 completes (~2400 s wall-clock
  // because the first two share the machine).
  EXPECT_GE(s.outcome(2).firstStart, 1200);
  EXPECT_EQ(s.state(2), sim::JobState::Finished);
}

TEST(Gang, RuntimeDilationScalesWithSlots) {
  // 3 machine-wide jobs, 3 slots: each gets ~1/3 of the machine time.
  GangScheduler policy(cfg(600, 3));
  const auto trace =
      makeTrace(8, {{0, 2400, 8}, {0, 2400, 8}, {0, 2400, 8}});
  sim::Simulator s(trace, policy);
  s.run();
  Time lastFinish = 0;
  for (JobId i = 0; i < 3; ++i)
    lastFinish = std::max(lastFinish, s.outcome(i).finish);
  EXPECT_NEAR(static_cast<double>(lastFinish), 7200.0, 601.0);
}

TEST(Gang, NewArrivalJoinsRowWithRoom) {
  // Rows: {8-proc job} and later a 4-proc job; a second 4-proc arrival
  // must join the 4-proc row, not open a third.
  GangScheduler policy(cfg(600, 4));
  const auto trace =
      makeTrace(8, {{0, 7200, 8}, {10, 7200, 4}, {20, 7200, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(policy.slotCount(), 0u);  // matrix empty at the end
  // Jobs 1 and 2 shared a row: they ran simultaneously at least once —
  // their finishes are within a quantum of each other.
  EXPECT_NEAR(static_cast<double>(s.outcome(1).finish),
              static_cast<double>(s.outcome(2).finish), 700.0);
}

TEST(Gang, WithOverheadSwitchesPayTheSweep) {
  FixedOverhead overhead(30, 30);
  GangScheduler policy(cfg(600));
  const auto trace = makeTrace(8, {{0, 1800, 8}, {0, 1800, 8}});
  sim::Simulator::Config config;
  config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  s.run();
  // Every switch costs a write-out + read-back on top of the compute.
  EXPECT_GT(s.outcome(0).overheadTotal() + s.outcome(1).overheadTotal(), 0);
  EXPECT_GE(std::max(s.outcome(0).finish, s.outcome(1).finish), 3600 + 60);
  for (JobId i = 0; i < 2; ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
}

TEST(Gang, BusyStreamCompletesAndAudits) {
  GangScheduler policy(cfg(300, 3));
  std::vector<J> jobs;
  for (int i = 0; i < 60; ++i)
    jobs.push_back({i * 40, (i % 7 == 0) ? Time{4000} : Time{250},
                    static_cast<std::uint32_t>(1 + (i % 8))});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator s(trace, policy);
  s.run();
  s.auditState();
  for (JobId i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
}

TEST(Gang, QuantumNotPostponedByArrivals) {
  // A steady drizzle of tiny jobs must not stop the two big jobs from
  // alternating (the re-arm bug this guards against postponed the switch
  // on every arrival).
  GangScheduler policy(cfg(600, 4));
  std::vector<J> jobs = {{0, 7200, 8}, {0, 7200, 8}};
  for (int i = 0; i < 50; ++i) jobs.push_back({i * 120, 60, 1});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(policy.switches(), 10u);
  // Job 1 (second wide job) must have computed long before job 0 finished.
  EXPECT_GE(s.outcome(1).suspendCount, 1u);
}

}  // namespace
}  // namespace sps::sched
