// Differential suite for Selective Suspension: the production class
// (sched::SelectiveSuspension — kernel indexes, arrival shortcut, tick
// gate, claim gate, walk fast-outs) against the rebuild-shaped
// check::ReferenceSelectiveSuspension, on the configurations the golden
// suite does not run: SF 1.5 and 5, static TSS, the Squat and Prefer
// owed-processor disciplines, migratable jobs and the half-width rule off.
// Each runs on seeded CTC and SDSC traces, with and without the DiskSwap
// overhead model, and one suite cancels jobs mid-run. The full transition
// log, the per-job records, the Preemptions counter and
// preemptionsInitiated() must all be equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/reference/ss_reference.hpp"
#include "core/experiment.hpp"
#include "sched/overhead.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using sched::OwedProcsPolicy;
using sched::SsConfig;

struct Outcome {
  std::vector<std::tuple<Time, JobId, int, int>> transitions;
  std::vector<Time> firstStart;
  std::vector<Time> finish;
  std::vector<std::uint32_t> suspendCount;
  std::uint64_t preemptionsCounter = 0;
  std::uint64_t preemptionsInitiated = 0;
  std::uint64_t cancelled = 0;
};

/// Run `policy` over `trace`. A nonzero `cancelStride` pauses every
/// `cancelStride` seconds and cancels the lowest-id idle (queued or
/// suspended) job whose id is a multiple of 3 — deterministic in the
/// simulator state, so two policies with identical schedules see identical
/// cancels.
template <typename Policy>
Outcome runPolicy(const workload::Trace& trace, Policy& policy,
                  const sim::OverheadPolicy* overhead, Time cancelStride) {
  sim::Simulator::Config config;
  config.overhead = overhead;
  sim::Simulator simulator(trace, policy, config);
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
      std::vector<JobId> idle(simulator.queuedJobs());
      for (const JobId id : simulator.suspendedJobs())
        if (simulator.state(id) == sim::JobState::Suspended)
          idle.push_back(id);
      std::sort(idle.begin(), idle.end());
      const auto it = std::find_if(idle.begin(), idle.end(),
                                   [](JobId id) { return id % 3 == 0; });
      if (it != idle.end() && simulator.cancelJob(*it)) ++run.cancelled;
    }
  }
  simulator.run();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    run.firstStart.push_back(simulator.exec(id).firstStart);
    run.finish.push_back(simulator.exec(id).finish);
    run.suspendCount.push_back(simulator.exec(id).suspendCount);
  }
  run.preemptionsCounter =
      simulator.counters().value(obs::Counter::Preemptions);
  run.preemptionsInitiated = policy.preemptionsInitiated();
  return run;
}

void expectIdentical(const Outcome& a, const Outcome& b,
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
  EXPECT_EQ(a.preemptionsCounter, b.preemptionsCounter) << context;
  EXPECT_EQ(a.preemptionsInitiated, b.preemptionsInitiated) << context;
  EXPECT_EQ(a.preemptionsCounter, a.preemptionsInitiated) << context;
  EXPECT_EQ(a.cancelled, b.cancelled) << context;
}

/// Seeded traces of at most 2k jobs; the SDSC one under Modal estimates so
/// early completions and overestimates both occur.
const std::vector<std::pair<std::string, workload::Trace>>& traces() {
  static const auto all = [] {
    std::vector<std::pair<std::string, workload::Trace>> v;
    v.emplace_back("ctc",
                   workload::generateTrace(workload::ctcConfig(1500, 5)));
    workload::Trace sdsc =
        workload::generateTrace(workload::sdscConfig(1500, 5));
    workload::EstimateModelConfig model;
    model.kind = workload::EstimateModelKind::Modal;
    workload::applyEstimates(sdsc, model);
    v.emplace_back("sdsc-modal", std::move(sdsc));
    return v;
  }();
  return all;
}

/// The configuration a variant name stands for, on `trace`.
SsConfig configFor(const std::string& variant, const workload::Trace& trace) {
  SsConfig config;
  if (variant == "sf1_5") {
    config.suspensionFactor = 1.5;
  } else if (variant == "sf5") {
    config.suspensionFactor = 5.0;
  } else if (variant == "tss_static") {
    // Limits bootstrapped from the trace's own NS run, as the "tss:" token
    // is resolved by check::resolveCaseSpec.
    config.tssLimits = core::bootstrapTssLimits(trace);
  } else if (variant == "squat") {
    config.owedProcs = OwedProcsPolicy::Squat;
  } else if (variant == "prefer") {
    config.owedProcs = OwedProcsPolicy::Prefer;
  } else if (variant == "migratable") {
    config.migratableJobs = true;
  } else if (variant == "no_half_width") {
    config.halfWidthRule = false;
  } else {
    ADD_FAILURE() << "unknown variant " << variant;
  }
  return config;
}

void expectMatchesReference(const SsConfig& config,
                            const workload::Trace& trace,
                            const std::string& context, Time cancelStride) {
  const sched::DiskSwapOverhead swap(trace);
  for (const sim::OverheadPolicy* overhead :
       {static_cast<const sim::OverheadPolicy*>(nullptr),
        static_cast<const sim::OverheadPolicy*>(&swap)}) {
    sched::SelectiveSuspension production(config);
    check::ReferenceSelectiveSuspension reference(config);
    const Outcome a = runPolicy(trace, production, overhead, cancelStride);
    const Outcome b = runPolicy(trace, reference, overhead, cancelStride);
    const std::string where = context + (overhead ? " +overhead" : "");
    expectIdentical(a, b, where);
    // A run that never preempts would compare nothing of interest.
    EXPECT_GT(a.preemptionsInitiated, 0U) << where;
  }
}

class SsDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(SsDifferential, MatchesReference) {
  for (const auto& [label, trace] : traces()) {
    expectMatchesReference(configFor(GetParam(), trace), trace,
                           GetParam() + " on " + label, /*cancelStride=*/0);
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SsDifferential,
                         ::testing::Values("sf1_5", "sf5", "tss_static",
                                           "squat", "prefer", "migratable",
                                           "no_half_width"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

// Mid-run cancels of queued and suspended jobs: the production class drops
// a cancelled claimant's claim and lets its index follow the ->Cancelled
// transition; the reference re-gathers everything per decision.
TEST(SsDifferentialCancel, MatchesReferenceUnderCancels) {
  for (const auto& [label, trace] : traces()) {
    for (const char* variant : {"sf1_5", "migratable"}) {
      expectMatchesReference(configFor(variant, trace), trace,
                             std::string(variant) + " on " + label +
                                 " with cancels",
                             /*cancelStride=*/1800);
    }
  }
}

}  // namespace
}  // namespace sps
