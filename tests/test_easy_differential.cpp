// Differential suite for EASY's one-pass backfill scan. sched::EasyBackfill
// computes the head's shadow once per pass and keeps it current across
// starts; the reference (check/reference/easy_reference.hpp) rebuilds its
// profile, recomputes the shadow and rescans the queue after every start.
// On seeded CTC and SDSC traces, in both queue orders, under exact and
// Modal estimates, and with mid-run cancellations, the two must produce
// bit-identical schedules and identical backfill-start, full-pass and
// arrival-fast-path counts. The unit cases at the bottom pin the edges the
// one-pass argument leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/reference/easy_reference.hpp"
#include "helpers.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"

namespace sps {
namespace {

using obs::Counter;
using sched::QueueOrder;

struct Outcome {
  std::vector<std::tuple<Time, JobId, int, int>> transitions;
  std::vector<Time> firstStart;
  std::vector<Time> finish;
  std::uint64_t backfillStarts = 0;
  std::uint64_t fullPasses = 0;
  std::uint64_t arrivalFastPaths = 0;
  std::uint64_t backfillTests = 0;
  std::uint64_t shadowQueries = 0;
  std::uint64_t backfillCount = 0;
  std::uint64_t cancelled = 0;
};

/// Run `policy` over `trace`. A nonzero `cancelStride` pauses every
/// `cancelStride` seconds and cancels the lowest-id queued job whose id is
/// a multiple of 3 — deterministic in the simulator state, so two policies
/// with identical schedules see identical cancels.
template <typename Policy>
Outcome runPolicy(const workload::Trace& trace, Policy& policy,
              Time cancelStride = 0) {
  sim::Simulator simulator(trace, policy);
  Outcome run;
  simulator.observers().onStateChange(
      [&run](const sim::Simulator& s, JobId id, sim::JobState from,
             sim::JobState to) {
        run.transitions.emplace_back(s.now(), id, static_cast<int>(from),
                                     static_cast<int>(to));
      });
  if (cancelStride > 0) {
    for (Time t = cancelStride; simulator.nextEventTime() != kNoTime;
         t += cancelStride) {
      simulator.runUntil(t);
      std::vector<JobId> queued(simulator.queuedJobs());
      std::sort(queued.begin(), queued.end());
      const auto it = std::find_if(queued.begin(), queued.end(),
                                   [](JobId id) { return id % 3 == 0; });
      if (it != queued.end() && simulator.cancelJob(*it)) ++run.cancelled;
    }
  }
  simulator.run();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    run.firstStart.push_back(simulator.exec(id).firstStart);
    run.finish.push_back(simulator.exec(id).finish);
  }
  const auto& counters = simulator.counters();
  run.backfillStarts = counters.value(Counter::BackfillStarts);
  run.fullPasses = counters.value(Counter::FullPasses);
  run.arrivalFastPaths = counters.value(Counter::ArrivalFastPaths);
  run.backfillTests = counters.value(Counter::BackfillTests);
  run.shadowQueries = counters.value(Counter::ShadowQueries);
  run.backfillCount = policy.backfillCount();
  return run;
}

Outcome runOnePass(const workload::Trace& trace, QueueOrder order,
                   Time cancelStride = 0) {
  sched::EasyBackfill policy({order});
  return runPolicy(trace, policy, cancelStride);
}

Outcome runReference(const workload::Trace& trace, QueueOrder order,
                     Time cancelStride = 0, bool arrivalFastPath = true) {
  check::RestartScanEasy policy(order, arrivalFastPath);
  return runPolicy(trace, policy, cancelStride);
}

void expectSameSchedule(const Outcome& a, const Outcome& b,
                        const std::string& context) {
  const std::size_t n = std::min(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.transitions[i] == b.transitions[i]) continue;
    const auto& [ta, ja, fa, sa] = a.transitions[i];
    const auto& [tb, jb, fb, sb] = b.transitions[i];
    FAIL() << context << ": schedules diverge at transition " << i
           << " — one-pass (t=" << ta << " job=" << ja << " " << fa << "->"
           << sa << ") vs reference (t=" << tb << " job=" << jb << " " << fb
           << "->" << sb << ")";
  }
  EXPECT_EQ(a.transitions.size(), b.transitions.size()) << context;
  EXPECT_EQ(a.firstStart, b.firstStart) << context;
  EXPECT_EQ(a.finish, b.finish) << context;
  EXPECT_EQ(a.cancelled, b.cancelled) << context;
}

void expectMatchesReference(const Outcome& onePass, const Outcome& reference,
                            const std::string& context) {
  expectSameSchedule(onePass, reference, context);
  EXPECT_EQ(onePass.backfillStarts, reference.backfillStarts) << context;
  EXPECT_EQ(onePass.fullPasses, reference.fullPasses) << context;
  EXPECT_EQ(onePass.arrivalFastPaths, reference.arrivalFastPaths) << context;
  EXPECT_EQ(onePass.backfillCount, reference.backfillCount) << context;
  // The point of the change: never more engine work than the restart scan.
  EXPECT_LE(onePass.backfillTests, reference.backfillTests) << context;
  EXPECT_LE(onePass.shadowQueries, reference.shadowQueries) << context;
}

workload::Trace seededTrace(const std::string& kind, std::uint64_t seed,
                            double load, bool modal) {
  workload::Trace trace = workload::scaleLoad(
      generateTrace(kind == "ctc" ? workload::ctcConfig(1200, seed)
                                  : workload::sdscConfig(1200, seed)),
      load);
  if (modal) {
    workload::EstimateModelConfig model;
    model.kind = workload::EstimateModelKind::Modal;
    model.seed = seed;
    applyEstimates(trace, model);
  }
  return trace;
}

class EasyOnePassDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(EasyOnePassDifferential, MatchesRestartScan) {
  const auto& [kind, seed] = GetParam();
  for (const double load : {1.0, 1.4}) {
    for (const bool modal : {false, true}) {
      const workload::Trace trace = seededTrace(kind, seed, load, modal);
      for (const QueueOrder order : {QueueOrder::Fcfs,
                                     QueueOrder::ShortestFirst}) {
        std::ostringstream context;
        context << kind << " seed " << seed << " load " << load
                << (modal ? " modal" : " exact")
                << (order == QueueOrder::Fcfs ? " fcfs" : " sjf");
        const Outcome onePass = runOnePass(trace, order);
        expectMatchesReference(onePass, runReference(trace, order),
                               context.str());
        // Every arrival through a full pass: checks the fast path too.
        expectSameSchedule(
            onePass,
            runReference(trace, order, 0, /*arrivalFastPath=*/false),
            context.str() + " (no arrival fast path)");
      }
    }
  }
}

TEST_P(EasyOnePassDifferential, MatchesRestartScanUnderCancels) {
  const auto& [kind, seed] = GetParam();
  const workload::Trace trace = seededTrace(kind, seed, 1.4, true);
  for (const QueueOrder order : {QueueOrder::Fcfs, QueueOrder::ShortestFirst}) {
    const std::string context =
        kind + " seed " + std::to_string(seed) +
        (order == QueueOrder::Fcfs ? " fcfs" : " sjf") + " with cancels";
    const Outcome onePass = runOnePass(trace, order, 600);
    EXPECT_GT(onePass.cancelled, 0u) << context;
    expectMatchesReference(onePass, runReference(trace, order, 600), context);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, EasyOnePassDifferential,
    ::testing::Combine(::testing::Values(std::string("ctc"),
                                         std::string("sdsc")),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& paramInfo) {
      return std::get<0>(paramInfo.param) + "_" +
             std::to_string(std::get<1>(paramInfo.param));
    });

// --- unit cases ---------------------------------------------------------

using test::J;
using test::makeTrace;

/// The one-pass scan against the reference.
void expectMatchesRestartScan(const workload::Trace& trace, QueueOrder order,
                              const std::string& context) {
  expectMatchesReference(runOnePass(trace, order), runReference(trace, order),
                         context);
}

TEST(EasyOnePass, FirstBackfillPastShadowShrinksExtra) {
  // Machine 10. A (4 procs) ends at 50, B (6 procs) at 100; head H needs 8,
  // so its shadow is 100 with extra 2. C and D (2 procs each, 500 s) queue
  // while the machine is full. A's completion frees 4: in that one pass C
  // starts on the extra processors and runs past the shadow, so extra
  // falls to 0 and D — which fits the 2 free processors — must be declined
  // against the same shadow.
  const auto trace = makeTrace(
      10, {{0, 50, 4}, {0, 100, 6}, {1, 100, 8}, {2, 500, 2}, {3, 500, 2}});
  const Outcome run = runOnePass(trace, QueueOrder::Fcfs);
  EXPECT_EQ(run.firstStart[3], 50);   // C: backfilled on the extra procs
  EXPECT_EQ(run.firstStart[2], 100);  // H: not delayed
  EXPECT_EQ(run.firstStart[4], 200);  // D: declined at 50, starts after H
  EXPECT_EQ(run.backfillStarts, 1u);
  expectMatchesRestartScan(trace, QueueOrder::Fcfs, "extra shrinks");
}

TEST(EasyOnePass, ZombieInCurrentBatch) {
  // Machine 8. A (4 procs, exact estimate) ends at 10. H needs 8 (shadow
  // 10). At t=10 C (1 s, 2 procs) and D (50 s, 2 procs) arrive ahead of
  // A's completion event: A is a zombie, so both arrivals take full passes
  // under the overlay, which pins A busy over [10, 11). The shadow moves to
  // 11 with extra 0: C ends by it and starts; D runs past it and waits.
  const auto trace =
      makeTrace(8, {{0, 10, 4}, {1, 100, 8}, {10, 1, 2}, {10, 50, 2}});
  const Outcome run = runOnePass(trace, QueueOrder::Fcfs);
  EXPECT_EQ(run.firstStart[2], 10);   // C: ends by the shadow
  EXPECT_EQ(run.firstStart[1], 11);   // H: starts once C is gone
  EXPECT_EQ(run.firstStart[3], 111);  // D: behind H
  EXPECT_EQ(run.arrivalFastPaths, 0u);
  expectMatchesRestartScan(trace, QueueOrder::Fcfs, "zombie");
}

TEST(EasyOnePass, CancelledPivotReleasesTheShadow) {
  // Machine 4. A (2 procs) runs to 100; head H needs 4, so C (2 procs,
  // 300 s) fits but would delay H and is declined. Cancelling H makes C
  // the head, and the cancel's pass starts it at once (at t=2: the clock
  // stays at the last dispatched event).
  const auto trace = makeTrace(4, {{0, 100, 2}, {1, 100, 4}, {2, 300, 2}});
  sched::EasyBackfill policy({QueueOrder::Fcfs});
  sim::Simulator s(trace, policy);
  s.runUntil(5);
  EXPECT_EQ(s.state(2), sim::JobState::Queued);
  EXPECT_TRUE(s.cancelJob(1));
  EXPECT_EQ(s.state(2), sim::JobState::Running);
  s.run();
  EXPECT_EQ(s.exec(2).firstStart, 2);
  EXPECT_EQ(s.exec(1).firstStart, kNoTime);
}

TEST(EasyOnePass, PassStartingWithNoFreeProcessors) {
  // Machine 4, full until 100. Under shortest-first, each shorter arrival
  // becomes the new head and takes a full pass with free = 0: the pass
  // computes the head's shadow but makes no engine test, and declines
  // every candidate behind the head.
  const auto trace =
      makeTrace(4, {{0, 100, 4}, {1, 500, 1}, {2, 400, 1}, {3, 300, 1}});
  sched::EasyBackfill policy({QueueOrder::ShortestFirst});
  sim::Simulator s(trace, policy);
  s.runUntil(3);
  const auto& counters = s.counters();
  EXPECT_EQ(counters.value(Counter::FullPasses), 4u);
  EXPECT_EQ(counters.value(Counter::ShadowQueries), 3u);
  EXPECT_EQ(counters.value(Counter::BackfillTests), 0u);
  EXPECT_EQ(counters.value(Counter::BackfillRejects), 0u + 1u + 2u);
  s.run();
  EXPECT_EQ(s.exec(3).firstStart, 100);
  expectMatchesRestartScan(trace, QueueOrder::ShortestFirst, "free = 0");
}

}  // namespace
}  // namespace sps
