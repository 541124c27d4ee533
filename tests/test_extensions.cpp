// Unit tests: extension features — SJF-backfill queue order, migratable
// preemption, online-adaptive TSS, diurnal arrivals, trace summaries.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/category_stats.hpp"
#include "sched/easy.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"
#include "workload/estimate_model.hpp"
#include "workload/summary.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using test::J;
using test::makeTrace;

// --- SJF-backfill ------------------------------------------------------------

TEST(SjfBackfill, ShortestEstimateJumpsTheQueue) {
  sched::EasyConfig cfg;
  cfg.order = sched::QueueOrder::ShortestFirst;
  sched::EasyBackfill policy(cfg);
  // Machine busy until 1000; then three queued jobs with distinct estimates
  // must start shortest-first regardless of submission order.
  const auto trace = makeTrace(
      4, {{0, 1000, 4}, {1, 500, 4}, {2, 100, 4}, {3, 300, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(2).firstStart, 1000);  // 100 s job first
  EXPECT_EQ(s.outcome(3).firstStart, 1100);  // then 300 s
  EXPECT_EQ(s.outcome(1).firstStart, 1400);  // then 500 s
}

TEST(SjfBackfill, FcfsOrderUnchangedByDefault) {
  sched::EasyBackfill policy;  // default FCFS
  const auto trace = makeTrace(
      4, {{0, 1000, 4}, {1, 500, 4}, {2, 100, 4}, {3, 300, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 1000);
  EXPECT_EQ(s.outcome(2).firstStart, 1500);
  EXPECT_EQ(s.outcome(3).firstStart, 1600);
}

TEST(SjfBackfill, NameReflectsOrder) {
  sched::EasyConfig cfg;
  cfg.order = sched::QueueOrder::ShortestFirst;
  EXPECT_EQ(sched::EasyBackfill(cfg).name(), "SJF-BF");
  EXPECT_EQ(sched::EasyBackfill().name(), "EASY (NS)");
}

TEST(SjfBackfill, BeatsFcfsOnAverageSlowdown) {
  const auto trace = workload::generateTrace(workload::sdscConfig(2000, 77));
  core::PolicySpec fcfs;
  fcfs.kind = core::PolicyKind::Easy;
  core::PolicySpec sjf = fcfs;
  sjf.easy.order = sched::QueueOrder::ShortestFirst;
  const auto a = core::runSimulation(trace, fcfs);
  const auto b = core::runSimulation(trace, sjf);
  EXPECT_LT(b.meanBoundedSlowdown(), a.meanBoundedSlowdown());
}

// --- migratable preemption ---------------------------------------------------

TEST(Migration, SuspendedJobRestartsOnDifferentProcessors) {
  // Long job on procs {0-3}; short job preempts it; meanwhile another job
  // occupies {0-3}; with migration the long job resumes elsewhere instead
  // of waiting.
  sched::SsConfig cfg;
  cfg.migratableJobs = true;
  sched::SelectiveSuspension policy(cfg);
  const auto trace =
      makeTrace(8, {{0, 7200, 4}, {10, 60, 4}, {11, 7200, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  for (JobId i = 0; i < 3; ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
}

TEST(Migration, NeverWorseCompletionThanLocalOnCongestedTrace) {
  const auto trace = workload::generateTrace(workload::sdscConfig(1500, 99));
  core::PolicySpec local;
  local.kind = core::PolicyKind::SelectiveSuspension;
  core::PolicySpec migrate = local;
  migrate.ss.migratableJobs = true;
  const auto a = core::runSimulation(trace, local);
  const auto b = core::runSimulation(trace, migrate);
  // Migration removes the exact-set constraint: mean turnaround should not
  // be materially worse (allow 10% noise).
  EXPECT_LT(b.meanTurnaround(), a.meanTurnaround() * 1.10);
}

TEST(Migration, AllInvariantsHoldUnderMigration) {
  sched::SsConfig cfg;
  cfg.migratableJobs = true;
  cfg.suspensionFactor = 1.5;
  sched::SelectiveSuspension policy(cfg);
  std::vector<J> jobs;
  for (int i = 0; i < 50; ++i)
    jobs.push_back({i * 60, (i % 6 == 0) ? Time{5000} : Time{200},
                    static_cast<std::uint32_t>(1 + (i % 8))});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator s(trace, policy);
  const test::FinishedExecLog finished(s);
  s.run();
  s.auditState();
  for (JobId i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
    EXPECT_EQ(finished[i].remainingWork, 0);
  }
}

// --- online-adaptive TSS -----------------------------------------------------

TEST(OnlineTss, MutuallyExclusiveWithStaticLimits) {
  sched::SsConfig cfg;
  cfg.tssLimits.emplace();
  cfg.tssOnlineMultiplier = 1.5;
  EXPECT_THROW(sched::SelectiveSuspension{cfg}, InvariantError);
}

TEST(OnlineTss, RejectsNonPositiveMultiplier) {
  sched::SsConfig cfg;
  cfg.tssOnlineMultiplier = 0.0;
  EXPECT_THROW(sched::SelectiveSuspension{cfg}, InvariantError);
}

TEST(OnlineTss, NameDistinguishesMode) {
  sched::SsConfig cfg;
  cfg.tssOnlineMultiplier = 1.5;
  EXPECT_EQ(sched::SelectiveSuspension(cfg).name(), "TSS-online(SF=2)");
}

TEST(OnlineTss, NoProtectionBeforeMinSamples) {
  // Two jobs only: far below tssOnlineMinSamples, so behaviour must be
  // identical to plain SS (the short job preempts).
  sched::SsConfig cfg;
  cfg.tssOnlineMultiplier = 1.5;
  sched::SelectiveSuspension policy(cfg);
  const auto trace = makeTrace(4, {{0, 36000, 4}, {10, 60, 4}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_GE(s.outcome(0).suspendCount, 1u);
}

TEST(OnlineTss, ConvergesToFewerSuspensionsThanPlainSs) {
  const auto trace = workload::generateTrace(workload::sdscConfig(2500, 55));
  core::PolicySpec ss;
  ss.kind = core::PolicyKind::SelectiveSuspension;
  core::PolicySpec online = ss;
  online.ss.tssOnlineMultiplier = 1.5;
  const auto a = core::runSimulation(trace, ss);
  const auto b = core::runSimulation(trace, online);
  EXPECT_LT(b.suspensions, a.suspensions);
  // And the averages stay in the same regime.
  EXPECT_LT(b.meanBoundedSlowdown(), a.meanBoundedSlowdown() * 2.0 + 2.0);
}

// --- diurnal arrivals ----------------------------------------------------------

TEST(Diurnal, ZeroAmplitudeMatchesHomogeneous) {
  auto a = workload::sdscConfig(800, 5);
  auto b = a;
  b.diurnalAmplitude = 0.0;
  const auto ta = generateTrace(a);
  const auto tb = generateTrace(b);
  for (std::size_t i = 0; i < ta.jobs.size(); ++i)
    EXPECT_EQ(ta.jobs[i].submit, tb.jobs[i].submit);
}

TEST(Diurnal, AmplitudeValidated) {
  auto cfg = workload::sdscConfig(10, 1);
  cfg.diurnalAmplitude = 1.0;
  EXPECT_THROW(generateTrace(cfg), InvariantError);
  cfg.diurnalAmplitude = -0.1;
  EXPECT_THROW(generateTrace(cfg), InvariantError);
}

TEST(Diurnal, PreservesOfferedLoad) {
  auto cfg = workload::sdscConfig(6000, 7);
  cfg.diurnalAmplitude = 0.8;
  const auto trace = generateTrace(cfg);
  EXPECT_NEAR(offeredLoad(trace), cfg.offeredLoad, 0.06);
  EXPECT_NO_THROW(validateTrace(trace));
}

TEST(Diurnal, ArrivalsConcentrateInPeakHalfDay) {
  auto cfg = workload::sdscConfig(8000, 9);
  cfg.diurnalAmplitude = 0.9;
  const auto trace = generateTrace(cfg);
  // sin > 0 on the first half of each day: with A = 0.9 the peak half must
  // hold well over half the arrivals.
  std::size_t peak = 0;
  for (const auto& j : trace.jobs)
    if (j.submit % kDay < kDay / 2) ++peak;
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(trace.jobs.size()),
            0.6);
}

// --- trace summary -------------------------------------------------------------

TEST(Summary, EmptyTrace) {
  workload::Trace t;
  t.machineProcs = 8;
  const auto s = workload::summarizeTrace(t);
  EXPECT_EQ(s.jobCount, 0u);
  EXPECT_DOUBLE_EQ(s.totalWork, 0.0);
}

TEST(Summary, BasicAggregates) {
  const auto trace = makeTrace(64, {{0, 100, 2}, {50, 200, 4}, {150, 50, 1}});
  const auto s = workload::summarizeTrace(trace);
  EXPECT_EQ(s.jobCount, 3u);
  EXPECT_DOUBLE_EQ(s.totalWork, 100.0 * 2 + 200.0 * 4 + 50.0 * 1);
  EXPECT_EQ(s.span, 150);
  EXPECT_DOUBLE_EQ(s.runtimes.min(), 50.0);
  EXPECT_DOUBLE_EQ(s.runtimes.max(), 200.0);
  EXPECT_DOUBLE_EQ(s.widths.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.interarrivals.values()[0], 0.0);  // first gap is 0
  EXPECT_DOUBLE_EQ(s.interarrivals.max(), 100.0);
}

TEST(Summary, SharesSumToHundred) {
  const auto trace = workload::generateTrace(workload::ctcConfig(2000, 3));
  const auto s = workload::summarizeTrace(trace);
  double jobs = 0, work = 0;
  for (std::size_t c = 0; c < workload::kNumCategories16; ++c) {
    jobs += s.jobShare[c];
    work += s.workShare[c];
  }
  EXPECT_NEAR(jobs, 100.0, 1e-9);
  EXPECT_NEAR(work, 100.0, 1e-9);
}

TEST(Summary, WorkConcentratesInLongWideCells) {
  // The work-share insight: VS cells dominate job counts but L/VL dominate
  // the machine time.
  const auto trace = workload::generateTrace(workload::ctcConfig(4000, 11));
  const auto s = workload::summarizeTrace(trace);
  double vsJobs = 0, vsWork = 0, longWork = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    vsJobs += s.jobShare[w];
    vsWork += s.workShare[w];
    longWork += s.workShare[8 + w] + s.workShare[12 + w];
  }
  EXPECT_GT(vsJobs, 30.0);   // ~44% of jobs
  EXPECT_LT(vsWork, 10.0);   // but a sliver of the work
  EXPECT_GT(longWork, 60.0); // the machine's time goes to L/VL
}

TEST(Summary, TablesRender) {
  const auto trace = workload::generateTrace(workload::sdscConfig(500, 13));
  const auto s = workload::summarizeTrace(trace);
  const std::string stats = workload::summaryStatsTable(s).toAscii();
  EXPECT_NE(stats.find("runtime (s)"), std::string::npos);
  EXPECT_NE(stats.find("estimate / runtime"), std::string::npos);
  const std::string grid = workload::workShareGrid(s).toAscii();
  EXPECT_NE(grid.find("VL"), std::string::npos);
  EXPECT_NE(grid.find("%"), std::string::npos);
}

TEST(Summary, EstimateFactorsReflectModel) {
  auto trace = workload::generateTrace(workload::sdscConfig(1000, 17));
  auto s = workload::summarizeTrace(trace);
  EXPECT_DOUBLE_EQ(s.estimateFactors.max(), 1.0);  // accurate by default
  workload::EstimateModelConfig est;
  est.kind = workload::EstimateModelKind::Modal;
  applyEstimates(trace, est);
  s = workload::summarizeTrace(trace);
  EXPECT_GT(s.estimateFactors.max(), 2.0);
}

// --- gang via the core facade ---------------------------------------------------

TEST(CoreGang, FactoryBuildsGang) {
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::Gang;
  spec.gang.maxSlots = 3;
  EXPECT_EQ(core::makePolicy(spec)->name(), "Gang(slots=3)");
  EXPECT_STREQ(core::policyKindName(core::PolicyKind::Gang), "Gang");
}

TEST(CoreGang, EndToEndOnSyntheticTrace) {
  const auto trace = workload::generateTrace(workload::sdscConfig(1200, 21));
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::Gang;
  const auto stats = core::runSimulation(trace, spec);
  EXPECT_EQ(stats.jobs.size(), trace.jobs.size());
  for (const auto& j : stats.jobs) EXPECT_GE(j.finish, j.submit + j.runtime);
}

}  // namespace
}  // namespace sps
