// Unit tests: reservation-depth backfilling (extension) — the spectrum
// between EASY (depth 1) and conservative (depth infinity).
#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "helpers.hpp"
#include "sched/conservative.hpp"
#include "sched/depth_backfill.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace sps::sched {
namespace {

using test::J;
using test::makeTrace;

TEST(DepthBF, ConfigRejectsZeroDepth) {
  DepthConfig cfg;
  cfg.depth = 0;
  EXPECT_THROW(DepthBackfill{cfg}, InvariantError);
}

TEST(DepthBF, NameCarriesDepth) {
  EXPECT_EQ(DepthBackfill(DepthConfig{3}).name(), "Depth-BF(3)");
  EXPECT_EQ(DepthBackfill(DepthConfig{kUnlimitedDepth}).name(),
            "Depth-BF(inf)");
}

TEST(DepthBF, BackfillsIntoHoleLikeEasy) {
  // The canonical backfill scenario: short narrow job slides past a wide
  // reserved head.
  DepthBackfill policy(DepthConfig{1});
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(2).firstStart, 2);
  EXPECT_EQ(s.outcome(1).firstStart, 100);
}

TEST(DepthBF, DepthOneLeavesSecondJobUnprotected) {
  // Same scenario as EASY's "SecondQueuedJobHasNoReservation": with depth 1
  // the backfill may delay the second queued job.
  DepthBackfill policy(DepthConfig{1});
  const auto trace =
      makeTrace(4, {{0, 100, 2}, {1, 100, 4}, {2, 100, 3}, {3, 97, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(3).firstStart, 3);    // backfilled
  EXPECT_EQ(s.outcome(1).firstStart, 100);  // head protected
  EXPECT_GE(s.outcome(2).firstStart, 200);  // second job delayed
}

TEST(DepthBF, DepthTwoProtectsSecondJob) {
  // With depth 2 the would-be backfill delays a reserved job and must wait.
  DepthBackfill policy(DepthConfig{2});
  const auto trace =
      makeTrace(4, {{0, 100, 2}, {1, 100, 4}, {2, 100, 3}, {3, 97, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.outcome(1).firstStart, 100);
  // Job 2 reserved right after job 1; job 3's backfill (ending at 100)
  // would occupy 2 of the 4 procs job 1 needs... it actually fits before
  // job 1's anchor; the reservation structure decides. Either way job 2's
  // guarantee (200) must hold:
  EXPECT_LE(s.outcome(2).firstStart, 200);
}

TEST(DepthBF, UnlimitedDepthMatchesConservative) {
  const auto trace = workload::generateTrace(workload::sdscConfig(600, 41));
  DepthBackfill depth(DepthConfig{kUnlimitedDepth});
  ConservativeBackfill conservative;
  sim::Simulator a(trace, depth);
  a.run();
  sim::Simulator b(trace, conservative);
  b.run();
  // Same guarantee structure => same schedule, on calibrated traces like
  // this one. The two re-anchor equal old guarantees in different orders
  // after an early completion (depth by id, conservative in the order its
  // reservations already hold), so adversarial traces can part them: fuzz
  // seed 30 shrinks to 9 jobs on 100 processors where jobs 6 and 8 hold
  // equal guarantees when job 4 ends early at t=13667; each policy
  // re-anchors a different one first, so when job 7 ends early at
  // t=13670 conservative starts job 8 and depth:inf job 6.
  for (JobId i = 0; i < trace.jobs.size(); ++i) {
    EXPECT_EQ(a.outcome(i).firstStart, b.outcome(i).firstStart) << "job " << i;
  }
}

TEST(DepthBF, DepthOneMatchesEasyOnAverage) {
  // Depth-1 and EASY share the guarantee structure; their backfill rules
  // are equivalent (see depth_backfill.hpp), so aggregate behaviour must
  // coincide closely on a real workload.
  const auto trace = workload::generateTrace(workload::sdscConfig(800, 43));
  core::PolicySpec d1;
  d1.kind = core::PolicyKind::DepthBackfill;
  d1.depth.depth = 1;
  core::PolicySpec easy;
  easy.kind = core::PolicyKind::Easy;
  const auto a = core::runSimulation(trace, d1);
  const auto b = core::runSimulation(trace, easy);
  EXPECT_NEAR(a.meanBoundedSlowdown(), b.meanBoundedSlowdown(),
              0.15 * b.meanBoundedSlowdown() + 0.5);
}

TEST(DepthBF, GuaranteesNeverRegress) {
  // Track every queued job's guarantee across the run via the accessor; the
  // internal CHECK enforces monotonicity, so completing the run is the
  // assertion. Exercise with early completions (estimates 4x runtimes).
  DepthBackfill policy(DepthConfig{4});
  std::vector<J> jobs;
  for (int i = 0; i < 40; ++i)
    jobs.push_back({i * 30, 200 + i * 10,
                    static_cast<std::uint32_t>(1 + (i % 8)),
                    (200 + i * 10) * 4});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator s(trace, policy);
  s.run();
  for (JobId i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
}

TEST(DepthBF, InterpolatesBetweenExtremes) {
  // Mean slowdown should vary monotonically-ish from EASY-like to
  // conservative-like; at minimum, all depths must complete and stay
  // within the envelope spanned by the two extremes (with slack).
  const auto trace = workload::generateTrace(workload::sdscConfig(800, 47));
  std::vector<double> slowdowns;
  for (std::size_t depth : {std::size_t{1}, std::size_t{4},
                            std::size_t{16}, kUnlimitedDepth}) {
    core::PolicySpec spec;
    spec.kind = core::PolicyKind::DepthBackfill;
    spec.depth.depth = depth;
    slowdowns.push_back(
        core::runSimulation(trace, spec).meanBoundedSlowdown());
  }
  const double lo =
      std::min(slowdowns.front(), slowdowns.back()) / 1.5 - 0.5;
  const double hi =
      std::max(slowdowns.front(), slowdowns.back()) * 1.5 + 0.5;
  for (double sd : slowdowns) {
    EXPECT_GT(sd, lo);
    EXPECT_LT(sd, hi);
  }
}

TEST(DepthBF, NoSuspensionsEver) {
  DepthBackfill policy(DepthConfig{2});
  const auto trace = makeTrace(8, {{0, 50, 2}, {5, 50, 8}, {9, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.totalSuspensions(), 0u);
}

TEST(DepthBF, FactoryIntegration) {
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::DepthBackfill;
  spec.depth.depth = 7;
  EXPECT_EQ(core::makePolicy(spec)->name(), "Depth-BF(7)");
}

}  // namespace
}  // namespace sps::sched
