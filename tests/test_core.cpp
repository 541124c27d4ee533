// Unit tests: core facade — policy factory, simulation runner, experiment
// helpers (TSS bootstrap, scheme sets, load sweep).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/replicate.hpp"
#include "core/figures.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"
#include "workload/synthetic.hpp"

#include <cmath>
#include <sstream>

namespace sps::core {
namespace {

using test::J;
using test::makeTrace;

TEST(PolicyFactory, BuildsEveryKind) {
  for (PolicyKind kind :
       {PolicyKind::Fcfs, PolicyKind::Conservative, PolicyKind::Easy,
        PolicyKind::SelectiveSuspension, PolicyKind::ImmediateService}) {
    PolicySpec spec;
    spec.kind = kind;
    const auto policy = makePolicy(spec);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
  }
}

TEST(PolicyFactory, KindNames) {
  EXPECT_STREQ(policyKindName(PolicyKind::Easy), "EASY");
  EXPECT_STREQ(policyKindName(PolicyKind::SelectiveSuspension),
               "SelectiveSuspension");
}

TEST(PolicyFactory, LabelOverride) {
  PolicySpec spec;
  spec.kind = PolicyKind::Easy;
  EXPECT_EQ(policyLabel(spec), "EASY (NS)");
  spec.label = "custom";
  EXPECT_EQ(policyLabel(spec), "custom");
}

TEST(RunSimulation, EndToEndSmallTrace) {
  const auto trace = makeTrace(8, {{0, 100, 4}, {10, 50, 4}, {20, 30, 8}});
  PolicySpec spec;
  spec.kind = PolicyKind::Easy;
  const metrics::RunStats stats = runSimulation(trace, spec);
  EXPECT_EQ(stats.jobs.size(), 3u);
  for (const auto& j : stats.jobs) EXPECT_GE(j.finish, j.submit + j.runtime);
}

TEST(RunSimulation, DeterministicAcrossCalls) {
  const auto trace = workload::generateTrace(workload::sdscConfig(400, 3));
  PolicySpec spec;
  spec.kind = PolicyKind::SelectiveSuspension;
  const auto a = runSimulation(trace, spec);
  const auto b = runSimulation(trace, spec);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
  EXPECT_EQ(a.suspensions, b.suspensions);
}

// The flat overhead/queueKind fields of SimulationOptions were deprecated
// in favour of `sim` and are now removed, as is the event-queue selector
// itself (one queue remains). A revival would flip these to true.
template <typename O>
concept HasFlatOverhead = requires(O o) { o.overhead; };
template <typename O>
concept HasQueueSelector = requires(O o) { o.queueKind; };
static_assert(!HasFlatOverhead<SimulationOptions>,
              "SimulationOptions::overhead shim was removed; use sim.overhead");
static_assert(!HasQueueSelector<SimulationOptions>,
              "SimulationOptions::queueKind shim was removed");
static_assert(!HasQueueSelector<sim::SimulatorConfig>,
              "the simulator has one event queue; there is no kind to pick");
static_assert(HasFlatOverhead<sim::SimulatorConfig>,
              "sim.overhead is the one overhead knob");

TEST(Experiment, BootstrapTssLimitsAreCalibrated) {
  const auto trace = workload::generateTrace(workload::sdscConfig(800, 5));
  const auto limits = bootstrapTssLimits(trace);
  // Every populated category must get a finite, >= 1.5 limit (avg slowdown
  // >= 1 always).
  const auto dist = metrics::distribution16(trace.jobs);
  for (std::size_t c = 0; c < limits.size(); ++c) {
    if (dist[c] > 0.0) {
      EXPECT_GE(limits[c], 1.5) << workload::category16Name(c);
      EXPECT_TRUE(std::isfinite(limits[c]));
    }
  }
}

TEST(Experiment, CompareSchemesPreservesOrder) {
  const auto trace = workload::generateTrace(workload::sdscConfig(300, 7));
  const auto specs = worstCaseSchemeSet();
  const auto runs = compareSchemes(trace, specs);
  ASSERT_EQ(runs.size(), specs.size());
  EXPECT_EQ(runs[0].policyName, "SS(SF=2.0)");
  EXPECT_EQ(runs[1].policyName, "NS");
  EXPECT_EQ(runs[2].policyName, "IS");
}

TEST(Experiment, SchemeSetShapes) {
  EXPECT_EQ(ssSchemeSet().size(), 5u);
  EXPECT_EQ(worstCaseSchemeSet().size(), 3u);
  std::array<double, workload::kNumCategories16> limits{};
  limits.fill(100.0);
  const auto tss = tssSchemeSet(limits);
  EXPECT_EQ(tss.size(), 5u);
  EXPECT_EQ(tss[0].label, "TSS(SF=1.5)");
  ASSERT_TRUE(tss[1].ss.tssLimits.has_value());
  EXPECT_DOUBLE_EQ((*tss[1].ss.tssLimits)[0], 100.0);
}

TEST(Experiment, LoadSweepScalesTraceAndRuns) {
  const auto trace = workload::generateTrace(workload::sdscConfig(300, 9));
  PolicySpec ns;
  ns.kind = PolicyKind::Easy;
  ns.label = "NS";
  const auto points = loadSweep(trace, {ns}, {1.0, 1.3});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].loadFactor, 1.0);
  ASSERT_EQ(points[0].runs.size(), 1u);
  // Higher load -> equal or higher mean slowdown (statistically solid at
  // 1.3x on this seed).
  EXPECT_GE(points[1].runs[0].meanBoundedSlowdown(),
            points[0].runs[0].meanBoundedSlowdown() * 0.9);
}

TEST(Experiment, LoadSweepRecalibratesTss) {
  const auto trace = workload::generateTrace(workload::sdscConfig(300, 11));
  std::array<double, workload::kNumCategories16> limits{};
  limits.fill(1.0);  // deliberately wrong; recalibration must replace them
  auto specs = tssSchemeSet(limits);
  const auto points = loadSweep(trace, specs, {1.0}, /*recalibrateTss=*/true);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].runs.size(), specs.size());
}

TEST(Replicate, AggregatesAcrossSeeds) {
  auto makeTrace = [](std::uint64_t seed) {
    return workload::generateTrace(workload::sdscConfig(300, seed));
  };
  PolicySpec ns;
  ns.kind = PolicyKind::Easy;
  ns.label = "NS";
  PolicySpec ss;
  ss.kind = PolicyKind::SelectiveSuspension;
  ss.label = "SS";
  const auto results = replicate(makeTrace, {1, 2, 3}, {ns, ss});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].policyName, "NS");
  EXPECT_EQ(results[0].meanSlowdown.count(), 3u);
  EXPECT_EQ(results[1].meanSlowdown.count(), 3u);
  // SS dominates NS in the mean even at this small scale.
  EXPECT_LT(results[1].meanSlowdown.mean(), results[0].meanSlowdown.mean());
  // NS never suspends.
  EXPECT_DOUBLE_EQ(results[0].suspensionsPerJob.mean(), 0.0);
}

TEST(Replicate, TssRecalibratedPerSeed) {
  auto makeTrace = [](std::uint64_t seed) {
    return workload::generateTrace(workload::sdscConfig(300, seed));
  };
  PolicySpec tss;
  tss.kind = PolicyKind::SelectiveSuspension;
  tss.ss.tssLimits.emplace();  // zero limits; must be replaced per seed
  tss.label = "TSS";
  const auto results = replicate(makeTrace, {1, 2}, {tss});
  ASSERT_EQ(results.size(), 1u);
  // With zero limits nothing could ever be preempted; recalibration makes
  // suspensions possible again.
  EXPECT_GT(results[0].suspensionsPerJob.mean(), 0.0);
}

TEST(Replicate, RejectsEmptyInputs) {
  auto makeTrace = [](std::uint64_t seed) {
    return workload::generateTrace(workload::sdscConfig(50, seed));
  };
  PolicySpec ns;
  ns.kind = PolicyKind::Easy;
  EXPECT_THROW((void)replicate(makeTrace, {}, {ns}), InvariantError);
  EXPECT_THROW((void)replicate(makeTrace, {1}, {}), InvariantError);
}

TEST(Replicate, TableShowsPlusMinus) {
  auto makeTrace = [](std::uint64_t seed) {
    return workload::generateTrace(workload::sdscConfig(200, seed));
  };
  PolicySpec ns;
  ns.kind = PolicyKind::Easy;
  ns.label = "NS";
  const auto table = replicationTable(replicate(makeTrace, {5, 6}, {ns}));
  const std::string out = table.toAscii();
  EXPECT_NE(out.find("NS"), std::string::npos);
  EXPECT_NE(out.find("±"), std::string::npos);
}

TEST(Figures, PanelsPrintAllRunClasses) {
  const auto trace = workload::generateTrace(workload::sdscConfig(300, 13));
  PolicySpec ns;
  ns.kind = PolicyKind::Easy;
  ns.label = "NS";
  const auto runs = compareSchemes(trace, {ns});
  std::ostringstream os;
  printFigurePanels(os, "test figure", runs, metrics::Metric::AvgSlowdown);
  const std::string out = os.str();
  EXPECT_NE(out.find("test figure"), std::string::npos);
  EXPECT_NE(out.find("Very Short"), std::string::npos);
  EXPECT_NE(out.find("Very Long"), std::string::npos);
  EXPECT_NE(out.find("NS"), std::string::npos);
}

TEST(Figures, SummariesOnePerRun) {
  const auto trace = makeTrace(8, {{0, 100, 4}});
  PolicySpec ns;
  ns.kind = PolicyKind::Easy;
  const auto runs = compareSchemes(trace, {ns, ns});
  std::ostringstream os;
  printRunSummaries(os, runs);
  std::size_t lines = 0;
  for (char ch : os.str())
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 2u);
}

}  // namespace
}  // namespace sps::core
