// Unit tests: sim::Simulator — job lifecycle, wait/xfactor accounting,
// suspension mechanics, overhead phases, invariant audits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/openmetrics.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "workload/synthetic.hpp"

namespace sps::sim {
namespace {

using test::J;
using test::ScriptedPolicy;
using test::makeTrace;

TEST(Simulator, SingleJobRunsToCompletion) {
  const auto trace = makeTrace(4, {{0, 100, 2}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  s.run();
  const JobExec& x = s.exec(0);
  EXPECT_EQ(s.state(0), JobState::Finished);
  EXPECT_EQ(x.firstStart, 0);
  EXPECT_EQ(x.finish, 100);
  EXPECT_EQ(x.suspendCount, 0u);
  EXPECT_EQ(s.lastFinish(), 100);
}

TEST(Simulator, QueuedJobWaitsForProcessors) {
  // Two 4-proc jobs on a 4-proc machine: strictly serial.
  const auto trace = makeTrace(4, {{0, 100, 4}, {10, 50, 4}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 100);
  EXPECT_EQ(s.exec(1).firstStart, 100);
  EXPECT_EQ(s.exec(1).finish, 150);
}

TEST(Simulator, AccumulatedWaitFrozenWhileRunning) {
  const auto trace = makeTrace(4, {{0, 100, 4}, {10, 50, 4}});
  ScriptedPolicy policy;
  Time waitAtStart = -1;
  policy.completion = [&](Simulator& s, JobId) {
    ScriptedPolicy::greedy(s);
    if (s.state(1) == JobState::Running)
      waitAtStart = s.accumulatedWait(1);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(waitAtStart, 90);          // waited 10..100
  EXPECT_EQ(s.accumulatedWait(1), 90); // still frozen at completion
}

TEST(Simulator, XfactorUsesEstimate) {
  // Job 1: estimate 200 (runtime 50). After waiting 90 s:
  // xfactor = (90 + 200) / 200 = 1.45.
  const auto trace = makeTrace(4, {{0, 100, 4}, {10, 50, 4, 200}});
  ScriptedPolicy policy;
  double xfAt100 = 0;
  policy.completion = [&](Simulator& s, JobId) {
    xfAt100 = s.xfactor(1);
    ScriptedPolicy::greedy(s);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_DOUBLE_EQ(xfAt100, (90.0 + 200.0) / 200.0);
}

TEST(Simulator, SuspensionSplitsWork) {
  // One long job, suspended at t=100 via timer, resumed greedily.
  const auto trace = makeTrace(4, {{0, 300, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(100, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    // Immediately resumable: processors freed synchronously (no overhead).
    s.resumeJob(0);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).suspendCount, 1u);
  EXPECT_EQ(s.exec(0).finish, 300);  // no overhead: zero net delay
  EXPECT_EQ(s.totalSuspensions(), 1u);
}

TEST(Simulator, SuspendedJobKeepsSavedProcs) {
  const auto trace = makeTrace(8, {{0, 100, 4}});
  ScriptedPolicy policy;
  ProcSet saved;
  policy.arrival = [&](Simulator& s, JobId j) {
    s.startJob(j);
    saved = s.exec(j).procs;
    s.scheduleTimer(10, 1);
  };
  policy.timer = [&](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    EXPECT_EQ(s.state(0), JobState::Suspended);
    EXPECT_EQ(s.exec(0).procs, saved);
    EXPECT_EQ(s.exec(0).remainingWork, 90);
    s.resumeJob(0);
    EXPECT_EQ(s.exec(0).procs, saved);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 100);
}

TEST(Simulator, StaleCompletionIgnoredAfterSuspension) {
  // Suspend at t=50, resume at once; the original completion event (t=100)
  // must be ignored and the real finish stays 100 only because resume was
  // instant. Delay the resume to t=80 and finish must shift to 130.
  const auto trace = makeTrace(4, {{0, 100, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(50, 1);  // suspend
    s.scheduleTimer(80, 2);  // resume
  };
  policy.timer = [](Simulator& s, std::uint64_t tag) {
    if (tag == 1) s.suspendJob(0);
    else s.resumeJob(0);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 130);
  EXPECT_EQ(s.exec(0).suspendCount, 1u);
}

TEST(Simulator, AccumulatedRunTracksSegments) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(30, 1);
    s.scheduleTimer(60, 2);
    s.scheduleTimer(70, 3);
  };
  policy.timer = [](Simulator& s, std::uint64_t tag) {
    if (tag == 1) {
      EXPECT_EQ(s.accumulatedRun(0), 30);
      s.suspendJob(0);
    } else if (tag == 2) {
      EXPECT_EQ(s.accumulatedRun(0), 30);  // frozen while suspended
      s.resumeJob(0);
    } else {
      EXPECT_EQ(s.accumulatedRun(0), 40);  // 30 + 10 into second segment
    }
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 130);
}

TEST(Simulator, InstantaneousXfactorInfiniteBeforeFirstRun) {
  const auto trace = makeTrace(4, {{0, 100, 4}, {5, 10, 4}});
  ScriptedPolicy policy;
  bool checked = false;
  policy.arrival = [&](Simulator& s, JobId j) {
    if (j == 0) {
      s.startJob(0);
    } else {
      EXPECT_TRUE(std::isinf(s.instantaneousXfactor(1)));
      checked = true;
    }
  };
  policy.completion = [](Simulator& s, JobId) { ScriptedPolicy::greedy(s); };
  Simulator s(trace, policy);
  s.run();
  EXPECT_TRUE(checked);
}

TEST(Simulator, StartRejectsOversizedRequest) {
  const auto trace = makeTrace(4, {{0, 10, 4}, {0, 10, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    if (j == 0) s.startJob(0);
    else EXPECT_THROW(s.startJob(1), InvariantError);
  };
  policy.completion = [](Simulator& s, JobId) { ScriptedPolicy::greedy(s); };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, DoubleStartThrows) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    EXPECT_THROW(s.startJob(j), InvariantError);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, SuspendQueuedJobThrows) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    EXPECT_THROW(s.suspendJob(j), InvariantError);
    s.startJob(j);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, ResumeOfNeverSuspendedThrows) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    EXPECT_THROW(s.resumeJob(j), InvariantError);
    s.startJob(j);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, StartJobOnPreviouslySuspendedThrows) {
  const auto trace = makeTrace(8, {{0, 100, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(10, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    EXPECT_THROW(s.startJob(0), InvariantError);
    s.resumeJob(0);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, TimerInThePastThrows) {
  // Two arrivals so the second fires at t=100 (traces are normalized to
  // start at 0); a timer for t=50 is then in the past.
  const auto trace = makeTrace(8, {{0, 10, 2}, {100, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    if (j == 1) {
      EXPECT_THROW(s.scheduleTimer(50, 0), InvariantError);
    }
    s.startJob(j);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, PolicyThatStrandsJobsTripsEndCheck) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator&, JobId) { /* never start */ };
  Simulator s(trace, policy);
  EXPECT_THROW(s.run(), InvariantError);
}

TEST(Simulator, AuditPassesThroughoutRandomishSchedule) {
  const auto trace = makeTrace(
      16, {{0, 50, 4}, {5, 80, 8}, {10, 20, 4}, {15, 60, 16}, {20, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId) {
    ScriptedPolicy::greedy(s);
    s.auditState();
  };
  policy.completion = [](Simulator& s, JobId) {
    ScriptedPolicy::greedy(s);
    s.auditState();
  };
  Simulator s(trace, policy);
  s.run();
  s.auditState();
}

TEST(Simulator, BusyProcSecondsMatchesWork) {
  const auto trace = makeTrace(8, {{0, 100, 4}, {0, 200, 2}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  s.run();
  EXPECT_DOUBLE_EQ(s.busyProcSeconds(), 100.0 * 4 + 200.0 * 2);
}

// --- overhead phases --------------------------------------------------------

TEST(SimulatorOverhead, SuspendHoldsProcsDuringDrain) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(/*suspend=*/20, /*resume=*/30);
  ScriptedPolicy policy;
  bool drainChecked = false;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(50, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    // Draining: processors still held, state Suspending.
    EXPECT_EQ(s.state(0), JobState::Suspending);
    EXPECT_EQ(s.freeCount(), 0u);
  };
  policy.drained = [&](Simulator& s, JobId j) {
    EXPECT_EQ(s.now(), 70);  // 50 + 20 drain
    EXPECT_EQ(s.state(j), JobState::Suspended);
    EXPECT_EQ(s.freeCount(), 4u);
    drainChecked = true;
    s.resumeJob(j);
  };
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_TRUE(drainChecked);
  // Timeline: run 0-50 (50 of work), drain 50-70, resume read-back 70-100,
  // remaining 50 of work 100-150.
  EXPECT_EQ(s.exec(0).finish, 150);
  EXPECT_EQ(s.exec(0).overheadTotal(), 50);
}

TEST(SimulatorOverhead, ResumeOverheadDoesNoWork) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(0, 40);
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(60, 1);
    s.scheduleTimer(80, 2);
  };
  policy.timer = [](Simulator& s, std::uint64_t tag) {
    if (tag == 1) {
      s.suspendJob(0);
      s.resumeJob(0);  // zero suspend overhead: procs free synchronously
    } else {
      // 60..80: read-back still in progress, no work done yet.
      EXPECT_EQ(s.accumulatedRun(0), 60);
    }
  };
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 140);  // 100 work + 40 read-back
}

TEST(SimulatorOverhead, FirstStartHasNoResumeOverhead) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(25, 25);
  ScriptedPolicy policy;
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 100);  // never suspended: no overhead at all
  EXPECT_EQ(s.exec(0).overheadTotal(), 0);
}

TEST(SimulatorOverhead, WaitAccruesDuringDrainAndSuspension) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(20, 0);
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(50, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) { s.suspendJob(0); };
  policy.drained = [](Simulator& s, JobId j) {
    EXPECT_EQ(s.accumulatedWait(j), 20);  // the drain counted as waiting
    s.resumeJob(j);
  };
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 120);
}


// --- arrival cursor / event queue merge --------------------------------------

/// (time, type, payload) of every dispatched event, in dispatch order.
using Dispatch = std::tuple<Time, EventType, std::uint64_t>;

void recordDispatches(Simulator& s, std::vector<Dispatch>& out) {
  s.observers().onEventDispatched([&out](const Simulator&, const Event& e) {
    out.emplace_back(e.time, e.type, e.payload);
  });
}

TEST(SimulatorArrivalCursor, ArrivalFiresBeforeCompletionAndTimerAtSameInstant) {
  // Job 0 runs [0, 10) and arms a timer for 10; job 1 arrives at 10. The
  // completion and the timer were queued long before the arrival's instant,
  // yet the arrival dispatches first, then the queue in push order.
  const auto trace = makeTrace(4, {{0, 10, 1}, {10, 5, 1}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    if (j == 0) s.scheduleTimer(10, 77);
  };
  policy.completion = [](Simulator&, JobId) {};
  Simulator s(trace, policy);
  std::vector<Dispatch> seen;
  recordDispatches(s, seen);
  s.run();
  const std::vector<Dispatch> expected = {
      {0, EventType::JobArrival, 0},
      {10, EventType::JobArrival, 1},
      {10, EventType::JobCompletion, 0},
      {10, EventType::Timer, 77},
      {15, EventType::JobCompletion, 1},
  };
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(s.eventsProcessed(), expected.size());
}

TEST(SimulatorArrivalCursor, ArrivalsAtOneInstantFireInIdOrder) {
  const auto trace =
      makeTrace(8, {{0, 10, 1}, {5, 10, 1}, {5, 10, 1}, {5, 10, 1}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  std::vector<Dispatch> seen;
  recordDispatches(s, seen);
  s.runUntil(5);
  ASSERT_EQ(seen.size(), 4u);
  for (std::uint64_t i = 1; i < 4; ++i)
    EXPECT_EQ(seen[i], Dispatch(5, EventType::JobArrival, i));
}

TEST(SimulatorArrivalCursor, NotArrivedCancelStillDispatchesOneArrival) {
  // A job cancelled before its arrival still costs one (no-op) arrival
  // dispatch, in batch and streamed runs alike, so eventsProcessed and the
  // sim.events counter match between the two shapes.
  const auto trace = makeTrace(4, {{0, 10, 2}, {5, 10, 2}, {8, 10, 2}});
  ScriptedPolicy batchPolicy;
  Simulator batch(trace, batchPolicy);
  std::vector<Dispatch> batchSeen;
  recordDispatches(batch, batchSeen);
  ASSERT_TRUE(batch.cancelJob(1));
  batch.run();

  ScriptedPolicy streamPolicy;
  Simulator streamed("stream", 4, streamPolicy, {});
  std::vector<Dispatch> streamSeen;
  recordDispatches(streamed, streamSeen);
  for (const workload::Job& j : trace.jobs) {
    streamed.runUntil(j.submit - 1);
    const JobId id = streamed.submit(j);
    if (id == 1) {
      ASSERT_TRUE(streamed.cancelJob(id));
    }
  }
  streamed.drain();

  // 3 arrivals (one a no-op) + 2 completions.
  EXPECT_EQ(batch.eventsProcessed(), 5u);
  EXPECT_EQ(streamed.eventsProcessed(), batch.eventsProcessed());
  EXPECT_EQ(streamed.counters().value(obs::Counter::SimEvents),
            batch.counters().value(obs::Counter::SimEvents));
  EXPECT_EQ(streamSeen, batchSeen);
  EXPECT_NE(std::find(batchSeen.begin(), batchSeen.end(),
                      Dispatch(5, EventType::JobArrival, 1)),
            batchSeen.end());
  EXPECT_EQ(batch.state(1), JobState::Cancelled);
  EXPECT_EQ(batch.exec(1).firstStart, kNoTime);
}

TEST(SimulatorArrivalCursor, NextEventTimeMergesCursorAndQueue) {
  // Job 0 runs [0, 30); job 1 arrives at 50 and runs [50, 60).
  const auto trace = makeTrace(4, {{0, 30, 1}, {50, 10, 1}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  EXPECT_EQ(s.nextEventTime(), 0);   // cursor only: queue empty
  ASSERT_TRUE(s.step());             // arrival 0 starts; completion at 30
  EXPECT_EQ(s.nextEventTime(), 30);  // both: queue ahead of cursor (50)
  ASSERT_TRUE(s.step());             // completion at 30
  EXPECT_EQ(s.nextEventTime(), 50);  // cursor only again
  ASSERT_TRUE(s.step());             // arrival 1 starts; completion at 60
  EXPECT_EQ(s.nextEventTime(), 60);  // queue only: cursor exhausted
  ASSERT_TRUE(s.step());
  EXPECT_EQ(s.nextEventTime(), kNoTime);  // neither
  EXPECT_FALSE(s.step());
  s.drain();
}

TEST(SimulatorArrivalCursor, NextEventTimeWhenCursorLeadsQueue) {
  ScriptedPolicy policy;
  Simulator s("stream", 2, policy, {});
  EXPECT_EQ(s.nextEventTime(), kNoTime);  // neither: nothing submitted
  workload::Job a;
  a.runtime = a.estimate = 100;
  a.procs = 1;
  s.submit(a);
  ASSERT_TRUE(s.step());  // arrival at 0; completion at 100
  workload::Job b = a;
  b.submit = 40;
  s.submit(b);
  EXPECT_EQ(s.nextEventTime(), 40);  // both: cursor ahead of queue
  workload::Job c = a;
  c.submit = 100;
  s.submit(c);
  s.runUntil(40);
  EXPECT_EQ(s.nextEventTime(), 100);  // both, tied at one instant
  ASSERT_TRUE(s.step());
  EXPECT_EQ(s.now(), 100);
  // The arrival went first: job 2 found both processors busy, and job 0's
  // completion at the same instant is still pending.
  EXPECT_EQ(s.state(2), JobState::Queued);
  EXPECT_EQ(s.state(0), JobState::Running);
  s.drain();
  EXPECT_EQ(s.unfinishedJobs(), 0u);
}

TEST(SimulatorArrivalCursor, LongSdscEasyTraceStreamsBitIdentically) {
  // A 100k-job SDSC trace at load 0.95 — the long-trace regime where the
  // old event set held every future arrival. Batch and streamed replays
  // must agree on every job and every counter.
  auto config = workload::sdscConfig(100'000, 11);
  config.offeredLoad = 0.95;
  const workload::Trace trace = workload::generateTrace(config);
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::Easy;
  const metrics::RunStats batch = core::runSimulation(trace, spec);
  core::TraceSource source(trace);
  const metrics::RunStats streamed = core::runSimulation(source, spec);
  ASSERT_EQ(batch.jobs.size(), trace.jobs.size());
  ASSERT_EQ(streamed.jobs.size(), batch.jobs.size());
  for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
    ASSERT_EQ(streamed.jobs[i].firstStart, batch.jobs[i].firstStart) << i;
    ASSERT_EQ(streamed.jobs[i].finish, batch.jobs[i].finish) << i;
  }
  EXPECT_EQ(streamed.eventsProcessed, batch.eventsProcessed);
  EXPECT_EQ(streamed.eventsProcessed, 2 * trace.jobs.size());
  EXPECT_EQ(metrics::openMetrics(streamed), metrics::openMetrics(batch));
}

}  // namespace
}  // namespace sps::sim
