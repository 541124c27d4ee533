// Golden-equivalence suite for the scheduling kernel. Every policy runs the
// same seeded synthetic trace twice — once as the production class
// (makePolicy: the kernel's amortized maintenance and fast paths) and once
// as its reference (check::referencePolicy: the reconstruct-per-event
// shape kept as an oracle) — and the two schedules must be bit-identical:
// the full (time, job, from, to) transition sequence, not just summary
// statistics.
//
// Labeled perf-smoke: `ctest -L perf-smoke` runs exactly this suite plus
// the small end-to-end sweep at the bottom, which is the gate the bench
// numbers in BENCH_engine.json are meaningful against.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/reference/reference_policy.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using check::Lane;
using check::lanePolicy;

/// One job state transition, exactly as the simulator reported it.
using Transition = std::tuple<Time, JobId, int, int>;

struct Schedule {
  std::vector<Transition> transitions;
  std::vector<Time> firstStart;
  std::vector<Time> finish;
  std::vector<std::uint32_t> suspendCount;
};

Schedule runSchedule(const workload::Trace& trace,
                     const core::PolicySpec& spec, Lane lane,
                     const sim::OverheadPolicy* overhead) {
  const auto policy = lanePolicy(spec, lane);
  sim::Simulator::Config config;
  config.overhead = overhead;
  sim::Simulator simulator(trace, *policy, config);
  Schedule schedule;
  simulator.observers().onStateChange(
      [&schedule](const sim::Simulator& s, JobId id, sim::JobState from,
                  sim::JobState to) {
        schedule.transitions.emplace_back(s.now(), id, static_cast<int>(from),
                                          static_cast<int>(to));
      });
  simulator.run();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    schedule.firstStart.push_back(simulator.exec(id).firstStart);
    schedule.finish.push_back(simulator.exec(id).finish);
    schedule.suspendCount.push_back(simulator.exec(id).suspendCount);
  }
  return schedule;
}

/// Assert two schedules are identical, with a useful first-divergence
/// message rather than a dump of both transition logs.
void expectIdentical(const Schedule& a, const Schedule& b,
                     const std::string& context) {
  const std::size_t n = std::min(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.transitions[i] == b.transitions[i]) continue;
    const auto& [ta, ja, fa, sa] = a.transitions[i];
    const auto& [tb, jb, fb, sb] = b.transitions[i];
    FAIL() << context << ": schedules diverge at transition " << i
           << " — production (t=" << ta << " job=" << ja << " " << fa << "->"
           << sa << ") vs reference (t=" << tb << " job=" << jb << " " << fb
           << "->" << sb << ")";
  }
  EXPECT_EQ(a.transitions.size(), b.transitions.size()) << context;
  EXPECT_EQ(a.firstStart, b.firstStart) << context;
  EXPECT_EQ(a.finish, b.finish) << context;
  EXPECT_EQ(a.suspendCount, b.suspendCount) << context;
}

std::vector<std::pair<std::string, core::PolicySpec>> kernelPolicies() {
  std::vector<std::pair<std::string, core::PolicySpec>> specs;
  core::PolicySpec spec;

  spec = {};
  spec.kind = core::PolicyKind::Conservative;
  specs.emplace_back("conservative", spec);

  spec = {};
  spec.kind = core::PolicyKind::Easy;
  specs.emplace_back("easy-fcfs", spec);

  spec = {};
  spec.kind = core::PolicyKind::Easy;
  spec.easy.order = sched::QueueOrder::ShortestFirst;
  specs.emplace_back("sjf-bf", spec);

  spec = {};
  spec.kind = core::PolicyKind::DepthBackfill;
  spec.depth.depth = 2;
  specs.emplace_back("depth-2", spec);

  spec = {};
  spec.kind = core::PolicyKind::DepthBackfill;
  spec.depth.depth = sched::kUnlimitedDepth;
  specs.emplace_back("depth-inf", spec);

  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  specs.emplace_back("ss", spec);

  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.tssOnlineMultiplier = 1.5;
  specs.emplace_back("tss-online", spec);

  spec = {};
  spec.kind = core::PolicyKind::ImmediateService;
  specs.emplace_back("is", spec);

  return specs;
}

// The trace kind is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which ASLR changes on every run, and
// the printed parameter is part of the test name ctest discovers.
class GoldenEquivalence : public ::testing::TestWithParam<
                              std::tuple<std::string, std::size_t>> {};

TEST_P(GoldenEquivalence, IncrementalMatchesRebuild) {
  const auto& [traceKind, jobCount] = GetParam();
  workload::Trace trace = generateTrace(
      traceKind == "ctc" ? workload::ctcConfig(jobCount, 42)
                         : workload::sdscConfig(jobCount, 42));
  // Two estimate regimes: exact estimates drive the incremental kernel's
  // on-time-completion fast paths on every completion; the Modal model
  // makes most completions early, driving the full compression/rebuild
  // path plus the mixed transitions between the two.
  for (const bool inaccurate : {false, true}) {
    if (inaccurate) {
      workload::EstimateModelConfig model;
      model.kind = workload::EstimateModelKind::Modal;
      applyEstimates(trace, model);
    }
    const sched::DiskSwapOverhead swap(trace);
    for (const auto& [label, spec] : kernelPolicies()) {
      // Overhead only matters to the preemptive policies, but running every
      // policy under both cost models is cheap and catches accidental
      // coupling between the ledger and the overhead path.
      for (const sim::OverheadPolicy* overhead :
           {static_cast<const sim::OverheadPolicy*>(nullptr),
            static_cast<const sim::OverheadPolicy*>(&swap)}) {
        const Schedule production =
            runSchedule(trace, spec, Lane::Production, overhead);
        const Schedule reference =
            runSchedule(trace, spec, Lane::Reference, overhead);
        std::ostringstream context;
        context << label << " on " << traceKind << "/" << jobCount
                << (inaccurate ? " modal-estimates" : " exact-estimates")
                << (overhead ? " +overhead" : "");
        expectIdentical(production, reference, context.str());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, GoldenEquivalence,
    ::testing::Values(std::make_tuple(std::string("ctc"), std::size_t{800}),
                      std::make_tuple(std::string("sdsc"), std::size_t{800})),
    [](const auto& paramInfo) {
      return std::get<0>(paramInfo.param) + "_" +
             std::to_string(std::get<1>(paramInfo.param));
    });

// The deferred-start edge both lanes must agree on: C's anchor lands
// at t=10 while A and B's completion events are still pending in the same
// timestamp batch, so the profile says "start now" before the machine can.
// The startNow test (anchor == now AND physically fits) defers the start to
// the completion cascade — still within t=10.
TEST(GoldenEquivalenceEdge, DeferredStartAtAnchorEqualsNow) {
  const auto trace =
      test::makeTrace(4, {{0, 10, 2}, {0, 10, 2}, {1, 5, 4}});
  for (const Lane lane : {Lane::Production, Lane::Reference}) {
    core::PolicySpec spec;
    spec.kind = core::PolicyKind::Conservative;
    const Schedule s = runSchedule(trace, spec, lane, nullptr);
    EXPECT_EQ(s.firstStart[0], 0);
    EXPECT_EQ(s.firstStart[1], 0);
    EXPECT_EQ(s.firstStart[2], 10) << check::laneName(lane);
    EXPECT_EQ(s.finish[2], 15);
  }
}

// Small end-to-end sweep (the second half of the perf-smoke gate): every
// policy × both lanes completes a short SDSC run with sane metrics.
TEST(PerfSmokeSweep, AllPoliciesCompleteWithSaneStats) {
  const workload::Trace trace =
      generateTrace(workload::sdscConfig(300, 7));
  for (const auto& [label, spec] : kernelPolicies()) {
    for (const Lane lane : {Lane::Production, Lane::Reference}) {
      const metrics::RunStats stats =
          core::runSimulation(trace, lanePolicy(spec, lane));
      EXPECT_EQ(stats.jobs.size(), trace.jobs.size()) << label;
      EXPECT_GT(stats.utilization, 0.0) << label;
      EXPECT_LE(stats.utilization, 1.0) << label;
      EXPECT_GE(stats.meanBoundedSlowdown(), 1.0) << label;
      EXPECT_GT(stats.span, 0) << label;
    }
  }
}

}  // namespace
}  // namespace sps
