// Differential suite for the reservation-holding backfillers. The
// production sched::ConservativeBackfill and sched::DepthBackfill run over
// the kernel's maintained ReservationLedger and take fast paths on
// arrivals and on-time completions; their check::referencePolicy lanes
// rebuild the profile from the running set at every decision point and
// re-anchor on every event. On 1500-job CTC traces (exact and Modal
// estimates) and Modal-estimate SDSC traces at load 0.95 (Modal estimates
// make many early completions) and on same-instant burst traces, the two
// must produce the same transition log, the same per-job records, and the
// same BackfillStarts and SimStarts counts, for conservative and depth 1,
// 2, 16 and infinity.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "check/reference/reference_policy.hpp"
#include "helpers.hpp"
#include "sched/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using check::Lane;
using obs::Counter;

struct Outcome {
  std::vector<std::tuple<Time, JobId, int, int>> transitions;
  std::vector<Time> firstStart;
  std::vector<Time> finish;
  std::vector<std::uint32_t> suspendCount;
  std::uint64_t backfillStarts = 0;
  std::uint64_t simStarts = 0;
  std::uint64_t completionFastPaths = 0;
  std::uint64_t fullPasses = 0;
};

Outcome run(const workload::Trace& trace, const sched::PolicySpec& spec,
            Lane lane) {
  const auto policy = check::lanePolicy(spec, lane);
  sim::Simulator simulator(trace, *policy);
  Outcome out;
  simulator.observers().onStateChange(
      [&out](const sim::Simulator& s, JobId id, sim::JobState from,
             sim::JobState to) {
        out.transitions.emplace_back(s.now(), id, static_cast<int>(from),
                                     static_cast<int>(to));
      });
  simulator.run();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    out.firstStart.push_back(simulator.exec(id).firstStart);
    out.finish.push_back(simulator.exec(id).finish);
    out.suspendCount.push_back(simulator.exec(id).suspendCount);
  }
  const auto& counters = simulator.counters();
  out.backfillStarts = counters.value(Counter::BackfillStarts);
  out.simStarts = counters.value(Counter::SimStarts);
  out.completionFastPaths = counters.value(Counter::CompletionFastPaths);
  out.fullPasses = counters.value(Counter::FullPasses);
  return out;
}

/// Production against reference on one trace; returns the production
/// outcome so callers can check which paths the trace exercised.
Outcome expectMatchesReference(const workload::Trace& trace,
                               const std::string& token,
                               const std::string& context) {
  const sched::PolicySpec spec = sched::specFromToken(token);
  const Outcome production = run(trace, spec, Lane::Production);
  const Outcome reference = run(trace, spec, Lane::Reference);
  const std::string where = context + " " + token;
  const std::size_t n =
      std::min(production.transitions.size(), reference.transitions.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (production.transitions[i] == reference.transitions[i]) continue;
    const auto& [ta, ja, fa, sa] = production.transitions[i];
    const auto& [tb, jb, fb, sb] = reference.transitions[i];
    ADD_FAILURE() << where << ": schedules diverge at transition " << i
                  << " — production (t=" << ta << " job=" << ja << " " << fa
                  << "->" << sa << ") vs reference (t=" << tb << " job=" << jb
                  << " " << fb << "->" << sb << ")";
    return production;
  }
  EXPECT_EQ(production.transitions.size(), reference.transitions.size())
      << where;
  EXPECT_EQ(production.firstStart, reference.firstStart) << where;
  EXPECT_EQ(production.finish, reference.finish) << where;
  EXPECT_EQ(production.suspendCount, reference.suspendCount) << where;
  EXPECT_EQ(production.backfillStarts, reference.backfillStarts) << where;
  EXPECT_EQ(production.simStarts, reference.simStarts) << where;
  EXPECT_EQ(production.simStarts, trace.jobs.size()) << where;
  return production;
}

const std::vector<std::string>& tokens() {
  static const std::vector<std::string> list = {
      "conservative", "depth:1", "depth:2", "depth:16", "depth:inf"};
  return list;
}

bool modal(const std::string& kind) {
  return kind.ends_with("-modal");
}

workload::Trace calibratedTrace(const std::string& kind, std::uint64_t seed) {
  auto config = kind.starts_with("ctc") ? workload::ctcConfig(1500, seed)
                                        : workload::sdscConfig(1500, seed);
  config.offeredLoad = 0.95;
  workload::Trace trace = workload::generateTrace(config);
  if (modal(kind)) {
    workload::EstimateModelConfig model;
    model.kind = workload::EstimateModelKind::Modal;
    model.seed = seed;
    applyEstimates(trace, model);
  }
  return trace;
}

class BackfillDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(BackfillDifferential, MatchesReference) {
  const auto& [kind, seed] = GetParam();
  const workload::Trace trace = calibratedTrace(kind, seed);
  const std::string context = kind + " seed " + std::to_string(seed);
  for (const std::string& token : tokens()) {
    const Outcome production = expectMatchesReference(trace, token, context);
    // Production takes the fast path on on-time completions and, under
    // Modal estimates, the full re-anchoring on early ones.
    EXPECT_GT(production.completionFastPaths, 0u) << context << " " << token;
    if (modal(kind)) {
      EXPECT_GT(production.fullPasses, 0u) << context << " " << token;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, BackfillDifferential,
    ::testing::Combine(::testing::Values(std::string("ctc"),
                                         std::string("ctc-modal"),
                                         std::string("sdsc-modal")),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2})),
    [](const auto& paramInfo) {
      std::string name = std::get<0>(paramInfo.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(std::get<1>(paramInfo.param));
    });

/// Bursts of jobs submitted at the same instant, with runtimes and
/// estimates on a coarse grid so that completions (on time and early) and
/// believed ends coincide with each other and with the next burst.
workload::Trace burstTrace(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<test::J> jobs;
  for (Time burst = 0; burst < 40; ++burst) {
    const std::int64_t size = rng.uniformInt(4, 24);
    for (std::int64_t k = 0; k < size; ++k) {
      const Time runtime = 100 * rng.uniformInt(1, 12);
      const Time estimate = runtime * rng.uniformInt(1, 3);
      const auto procs = static_cast<std::uint32_t>(
          rng.uniformInt(0, 3) == 0 ? rng.uniformInt(17, 64)
                                    : rng.uniformInt(1, 16));
      jobs.push_back({burst * 300, runtime, procs, estimate});
    }
  }
  return test::makeTrace(64, std::move(jobs), "bursts");
}

TEST(BackfillDifferentialBurst, SameInstantArrivalsAndCompletions) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const workload::Trace trace = burstTrace(seed);
    for (const std::string& token : tokens())
      (void)expectMatchesReference(trace, token,
                                   "bursts seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace sps
