// Chaos fuzzing: a policy that takes random (but legal) actions against the
// simulator, checking that the kernel's invariants hold under arbitrary
// interleavings of start/suspend/resume/migrate — far beyond what any
// well-behaved scheduler exercises.
#include <gtest/gtest.h>

#include <vector>

#include "check/invariants.hpp"
#include "helpers.hpp"
#include "metrics/collector.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sps {
namespace {

using test::J;
using test::makeTrace;

/// Acts randomly on every event: maybe start queued jobs, maybe suspend a
/// running job, maybe resume (locally or migrating). Guarantees progress so
/// the run terminates: with no running jobs it always starts/resumes
/// something startable.
class ChaosPolicy final : public sim::SchedulingPolicy {
 public:
  explicit ChaosPolicy(std::uint64_t seed, bool allowMigration)
      : rng_(seed), allowMigration_(allowMigration) {}

  [[nodiscard]] std::string name() const override { return "chaos"; }

  void onJobArrival(sim::Simulator& s, JobId) override { act(s); }
  void onJobCompletion(sim::Simulator& s, JobId) override { act(s); }
  void onSuspendDrained(sim::Simulator& s, JobId) override { act(s); }
  void onTimer(sim::Simulator& s, std::uint64_t) override { act(s); }

 private:
  void act(sim::Simulator& s) {
    s.auditState();
    // Random suspensions (bounded so work still progresses).
    if (!s.runningJobs().empty() && rng_.bernoulli(0.3)) {
      const auto& running = s.runningJobs();
      const JobId victim = running[static_cast<std::size_t>(
          rng_.uniformInt(0, static_cast<std::int64_t>(running.size()) - 1))];
      // Cap per-job suspensions so the chaos converges.
      if (s.outcome(victim).suspendCount < 8) s.suspendJob(victim);
    }
    // Random resumes.
    std::vector<JobId> suspended(s.suspendedJobs());
    for (JobId id : suspended) {
      if (s.state(id) != sim::JobState::Suspended) continue;
      if (!rng_.bernoulli(0.5)) continue;
      if (allowMigration_ && rng_.bernoulli(0.5)) {
        if (s.freeCount() >= s.job(id).procs)
          s.resumeJobMigrating(id, sim::ProcSet{});
      } else if (s.exec(id).procs.isSubsetOf(s.freeSet())) {
        s.resumeJob(id);
      }
    }
    // Random starts.
    std::vector<JobId> queued(s.queuedJobs());
    for (JobId id : queued) {
      if (s.job(id).procs <= s.freeCount() && rng_.bernoulli(0.7))
        s.startJob(id);
    }
    ensureProgress(s);
    s.auditState();
  }

  /// If nothing runs and nothing drains, force something in so the event
  /// queue cannot empty with unfinished jobs.
  void ensureProgress(sim::Simulator& s) {
    if (!s.runningJobs().empty()) return;
    bool draining = false;
    for (JobId id : s.suspendedJobs())
      draining |= s.state(id) == sim::JobState::Suspending;
    if (draining) return;
    for (JobId id : std::vector<JobId>(s.suspendedJobs())) {
      if (s.state(id) == sim::JobState::Suspended &&
          s.exec(id).procs.isSubsetOf(s.freeSet())) {
        s.resumeJob(id);
        return;
      }
    }
    for (JobId id : std::vector<JobId>(s.queuedJobs())) {
      if (s.job(id).procs <= s.freeCount()) {
        s.startJob(id);
        return;
      }
    }
    // Everything left is suspended with occupied processors — impossible
    // here because nothing is running; free the logjam by migrating.
    for (JobId id : std::vector<JobId>(s.suspendedJobs())) {
      if (s.state(id) == sim::JobState::Suspended &&
          s.job(id).procs <= s.freeCount()) {
        s.resumeJobMigrating(id, sim::ProcSet{});
        return;
      }
    }
  }

  Rng rng_;
  bool allowMigration_;
};

struct ChaosCase {
  std::uint64_t seed;
  bool migration;
  bool overhead;
};

class ChaosFuzz : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosFuzz, KernelInvariantsSurviveRandomActions) {
  const auto& param = GetParam();
  Rng traceRng(param.seed * 1000003);
  std::vector<J> jobs;
  Time t = 0;
  for (int i = 0; i < 80; ++i) {
    t += traceRng.uniformInt(0, 200);
    jobs.push_back({t, traceRng.uniformInt(1, 1500),
                    static_cast<std::uint32_t>(traceRng.uniformInt(1, 12)),
                    0, static_cast<std::uint32_t>(traceRng.uniformInt(1, 32))});
  }
  const auto trace = makeTrace(12, jobs);

  ChaosPolicy policy(param.seed, param.migration);
  sched::DiskSwapOverhead overhead(trace, 32.0);
  sim::Simulator::Config config;
  if (param.overhead) config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  // The full invariant oracle rides along at stride 1: chaos interleavings
  // must satisfy capacity/conservation like any well-behaved scheduler.
  // (ChaosPolicy exposes no guarantee/TSS/ledger probes, so those layers
  // arm as no-ops.)
  check::InvariantChecker checker(check::CheckConfig::all(1));
  checker.arm(s, policy);
  const test::FinishedExecLog finished(s);
  s.run();
  checker.finalize(s);
  EXPECT_GT(checker.epochAudits(), 0u);
  s.auditState();

  for (const auto& j : trace.jobs) {
    const auto& x = s.outcome(j.id);
    EXPECT_EQ(s.state(j.id), sim::JobState::Finished);
    EXPECT_EQ(finished[j.id].remainingWork, 0);
    EXPECT_GE(x.finish, j.submit + j.runtime);
    EXPECT_EQ(finished[j.id].accumulatedWait + j.runtime +
                  x.resumeOverheadElapsed,
              x.finish - j.submit);
  }
  // Collector must accept whatever the chaos produced.
  const auto stats = metrics::collect(s, "chaos");
  EXPECT_EQ(stats.jobs.size(), trace.jobs.size());
  EXPECT_GE(stats.utilization, 0.0);
  EXPECT_LE(stats.utilization, 1.0 + 1e-9);
}

std::string chaosName(const ::testing::TestParamInfo<ChaosCase>& info) {
  std::string name = "seed" + std::to_string(info.param.seed);
  if (info.param.migration) name += "_mig";
  if (info.param.overhead) name += "_oh";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosFuzz,
    ::testing::Values(ChaosCase{1, false, false}, ChaosCase{2, false, false},
                      ChaosCase{3, false, false}, ChaosCase{4, true, false},
                      ChaosCase{5, true, false}, ChaosCase{6, false, true},
                      ChaosCase{7, false, true}, ChaosCase{8, true, true},
                      ChaosCase{9, true, true}, ChaosCase{10, true, true}),
    chaosName);

}  // namespace
}  // namespace sps
