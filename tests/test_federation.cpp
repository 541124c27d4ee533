// Federation battery (`ctest -L fed`): epoch-barrier contract, router
// units, the partition-equivalence theorem (federation with a recorded
// router == matching single-cluster batch runs, bit for bit) across every
// policy token x {1,2,4} shards, and worker-pool-size
// determinism. This is the lane to re-run under both sanitizer flavours
// (-DSPS_SANITIZE=thread for the epoch barrier hand-off, =address for the
// per-shard trace growth).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "check/diff_harness.hpp"
#include "check/fleet_audit.hpp"
#include "fed/fed_diff.hpp"
#include "fed/federation.hpp"
#include "fed/router.hpp"
#include "helpers.hpp"
#include "metrics/openmetrics.hpp"
#include "sched/policy_factory.hpp"
#include "util/check.hpp"
#include "workload/synthetic.hpp"

namespace sps::fed {
namespace {

using test::J;
using test::makeTrace;

std::vector<ShardView> viewsOf(std::vector<std::pair<double, double>> loads,
                               std::uint32_t procs = 64) {
  std::vector<ShardView> views;
  for (const auto& [backlog, routed] : loads)
    views.push_back(ShardView{procs, backlog, routed});
  return views;
}

// ---------------------------------------------------------------- routers

TEST(Router, StaticHashIsSeqModuloShards) {
  StaticHashRouter router;
  const auto views = viewsOf({{0, 0}, {1e9, 0}, {0, 1e9}});
  workload::Job job;
  for (std::uint64_t seq = 0; seq < 9; ++seq)
    EXPECT_EQ(router.route(job, seq, views), seq % 3);
}

TEST(Router, LeastLoadedPicksSmallestPressure) {
  LeastLoadedRouter router;
  workload::Job job;
  EXPECT_EQ(router.route(job, 0, viewsOf({{500, 0}, {100, 0}, {300, 0}})), 1u);
  // In-window routed work counts toward pressure: the shard that looked
  // idle at the barrier stops winning once the router has loaded it up.
  EXPECT_EQ(router.route(job, 1, viewsOf({{500, 0}, {100, 900}, {300, 0}})),
            2u);
  // Ties break to the lowest index.
  EXPECT_EQ(router.route(job, 2, viewsOf({{100, 0}, {100, 0}})), 0u);
}

TEST(Router, ReplayReproducesTheRecordAndBoundsChecks) {
  ReplayRouter router({2, 0, 1});
  const auto views = viewsOf({{0, 0}, {0, 0}, {0, 0}});
  workload::Job job;
  EXPECT_EQ(router.route(job, 0, views), 2u);
  EXPECT_EQ(router.route(job, 1, views), 0u);
  EXPECT_EQ(router.route(job, 2, views), 1u);
  EXPECT_THROW((void)router.route(job, 3, views), InvariantError);
}

TEST(Router, TokenRegistry) {
  for (const std::string& token : knownRouterTokens())
    EXPECT_EQ(routerFromToken(token)->name(), token);
  EXPECT_THROW((void)routerFromToken("round-robin"), InputError);
}

// ------------------------------------------------- epoch-barrier contract

FleetStats runFleet(const workload::Trace& fleet, const std::string& policy,
                    const std::string& router, FederationConfig config) {
  const core::PolicySpec spec = sched::specFromToken(policy);
  const auto r = routerFromToken(router);
  config.check = check::CheckConfig::all(1);
  return Federation(fleet, spec, *r, config).run();
}

std::vector<std::string> shardMetrics(const FleetStats& fleet) {
  std::vector<std::string> out;
  for (const auto& s : fleet.shards) out.push_back(metrics::openMetrics(s));
  return out;
}

workload::Trace smallFleetTrace(std::uint32_t clusters) {
  auto cfg = workload::sdscConfig(240, 11);
  cfg.machineProcs = 64;
  return workload::generateFleetTrace(cfg, clusters);
}

TEST(Federation, ResultsInvariantToEpochBoundariesGivenTheRoutingRecord) {
  // Epoch boundaries batch work; given a fixed routing record they must
  // never change a schedule. (A load-observing router like least-loaded
  // legitimately routes differently under a different barrier cadence —
  // its inputs are barrier snapshots — so the invariance theorem is stated
  // over the record: replay ANY recorded assignment under ANY epoch knobs
  // and the shards come out bit-identical.) Sweep auto mode (tiny and huge
  // batches) and fixed tiling (fine and coarse).
  const auto fleet = smallFleetTrace(2);
  FederationConfig base;
  base.shards = 2;
  base.routingDelay = 45;
  base.jobsPerEpoch = 50;  // several barriers even on a 240-job trace
  base.check = check::CheckConfig::all(1);

  const auto recorded = runFleet(fleet, "ss:2", "least-loaded", base);
  const auto referenceMetrics = shardMetrics(recorded);
  ASSERT_GT(recorded.epochs, 1u);
  ASSERT_GT(recorded.forwarded, 0u);  // the record is not just home shards

  const core::PolicySpec spec = sched::specFromToken("ss:2");
  for (const auto& [epochLength, jobsPerEpoch] :
       std::vector<std::pair<Time, std::size_t>>{
           {0, 1}, {0, 10000}, {300, 0}, {24 * kHour, 0}}) {
    FederationConfig config = base;
    config.epochLength = epochLength;
    if (jobsPerEpoch > 0) config.jobsPerEpoch = jobsPerEpoch;
    ReplayRouter replay(recorded.assignments);
    const auto run = Federation(fleet, spec, replay, config).run();
    EXPECT_EQ(run.assignments, recorded.assignments)
        << "epochLength=" << epochLength << " jobsPerEpoch=" << jobsPerEpoch;
    EXPECT_EQ(run.effectiveSubmits, recorded.effectiveSubmits);
    EXPECT_EQ(shardMetrics(run), referenceMetrics)
        << "epochLength=" << epochLength << " jobsPerEpoch=" << jobsPerEpoch;
  }
}

TEST(Federation, CoarserEpochsMeanFewerBarriers) {
  const auto fleet = smallFleetTrace(2);
  FederationConfig fine;
  fine.shards = 2;
  fine.epochLength = 300;
  FederationConfig coarse = fine;
  coarse.epochLength = 24 * kHour;
  const auto fineRun = runFleet(fleet, "easy", "hash", fine);
  const auto coarseRun = runFleet(fleet, "easy", "hash", coarse);
  EXPECT_LT(coarseRun.epochs, fineRun.epochs);
  EXPECT_EQ(shardMetrics(fineRun), shardMetrics(coarseRun));
}

TEST(Federation, HomeShardPaysNoDelayForwardedJobsPayExactlyOne) {
  const auto fleet = smallFleetTrace(2);
  FederationConfig config;
  config.shards = 2;
  config.routingDelay = 120;

  // The hash router IS the home-shard rule: nothing forwards, nothing pays.
  const auto home = runFleet(fleet, "easy", "hash", config);
  EXPECT_EQ(home.forwarded, 0u);
  for (const workload::Job& job : fleet.jobs)
    EXPECT_EQ(home.effectiveSubmits[job.id], job.submit);

  // Least-loaded deviates from home for some jobs; each deviation arrives
  // exactly routingDelay late, and the audit re-derives that from scratch.
  const auto balanced = runFleet(fleet, "easy", "least-loaded", config);
  EXPECT_GT(balanced.forwarded, 0u);
  std::uint64_t forwarded = 0;
  for (const workload::Job& job : fleet.jobs) {
    const bool offHome = balanced.assignments[job.id] != job.id % 2;
    forwarded += offHome ? 1 : 0;
    EXPECT_EQ(balanced.effectiveSubmits[job.id],
              offHome ? job.submit + 120 : job.submit);
  }
  EXPECT_EQ(balanced.forwarded, forwarded);
  check::auditFleetConservation(fleet, balanced.shards, balanced.assignments,
                                balanced.effectiveSubmits, 2, 120);
}

TEST(Federation, RunIsSingleUse) {
  const auto fleet = smallFleetTrace(1);
  const core::PolicySpec spec = sched::specFromToken("fcfs");
  StaticHashRouter router;
  Federation federation(fleet, spec, router, FederationConfig{.shards = 1});
  (void)federation.run();
  EXPECT_THROW((void)federation.run(), InvariantError);
}

// ------------------------------------------------------- per-shard traces

TEST(Federation, PerShardTracesPartitionTheFleet) {
  const auto fleet = makeTrace(
      8, {{0, 50, 2}, {5, 30, 4}, {5, 20, 1}, {9, 10, 8}}, "tiny-fleet");
  const std::vector<std::uint32_t> assignments{1, 1, 0, 1};
  const std::vector<Time> effective{10, 5, 5, 9};  // job 0 forwarded late
  const auto shards = perShardTraces(fleet, assignments, effective, 2);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].name, "tiny-fleet/shard0");
  EXPECT_EQ(shards[0].machineProcs, 8u);
  ASSERT_EQ(shards[0].jobs.size(), 1u);
  EXPECT_EQ(shards[0].jobs[0].procs, 1u);
  EXPECT_EQ(shards[0].jobs[0].id, 0u);

  // Shard 1 orders by (effective submit, fleet id): jobs 1, 3, then 0.
  ASSERT_EQ(shards[1].jobs.size(), 3u);
  EXPECT_EQ(shards[1].jobs[0].procs, 4u);
  EXPECT_EQ(shards[1].jobs[1].procs, 8u);
  EXPECT_EQ(shards[1].jobs[2].procs, 2u);
  EXPECT_EQ(shards[1].jobs[2].submit, 10);
  for (JobId id = 0; id < 3; ++id) EXPECT_EQ(shards[1].jobs[id].id, id);
}

TEST(FleetAudit, CatchesATamperedRecord) {
  const auto fleet = smallFleetTrace(2);
  FederationConfig config;
  config.shards = 2;
  auto run = runFleet(fleet, "easy", "hash", config);
  EXPECT_NO_THROW(check::auditFleetConservation(
      fleet, run.shards, run.assignments, run.effectiveSubmits, 2, 0));
  auto tampered = run.assignments;
  tampered[3] ^= 1u;  // claim job 3 ran on the other shard
  EXPECT_THROW(check::auditFleetConservation(fleet, run.shards, tampered,
                                             run.effectiveSubmits, 2, 0),
               InvariantError);
  auto shifted = run.effectiveSubmits;
  shifted[5] += 1;
  EXPECT_THROW(check::auditFleetConservation(fleet, run.shards,
                                             run.assignments, shifted, 2, 0),
               InvariantError);
}

// ------------------------------------------------ partition equivalence

// The theorem, policy by policy: a federation with a recorded router
// equals the matching single-cluster batch runs on the per-shard traces,
// bit for bit — schedules, counters, suspension categories.
// diffFederated also re-runs the fleet through the ReplayRouter, so one
// green outcome pins the router record, the epoch sync, and the shard
// independence at once.
void expectPartitionEquivalence(std::uint32_t shards) {
  for (const std::string& token : sched::knownPolicyTokens()) {
    check::FuzzCase c = check::makeFuzzCase(7, token);
    c.fedShards = shards;
    c.fedRouter = "hash";
    c.fedDelay = shards > 1 ? 30 : 0;
    const auto outcome = diffFederated(c);
    EXPECT_TRUE(outcome.ok())
        << token << " shards=" << shards << "\n  divergence: "
        << outcome.divergence << "\n  violation: " << outcome.violation;
  }
}

TEST(PartitionEquivalence, OneShardEveryPolicyBothModes) {
  expectPartitionEquivalence(1);
}
TEST(PartitionEquivalence, TwoShardsEveryPolicyBothModes) {
  expectPartitionEquivalence(2);
}
TEST(PartitionEquivalence, FourShardsEveryPolicyBothModes) {
  expectPartitionEquivalence(4);
}

TEST(PartitionEquivalence, LeastLoadedRouterWithOverheadModel) {
  check::FuzzCase c = check::makeFuzzCase(19, "ss:2");
  c.overhead = true;
  c.fedShards = 3;
  c.fedRouter = "least-loaded";
  c.fedDelay = 60;
  const auto outcome = diffFederated(c);
  EXPECT_TRUE(outcome.ok()) << "divergence: " << outcome.divergence
                            << "\n  violation: " << outcome.violation;
}

// ------------------------------------------------------------ determinism

TEST(Federation, BitIdenticalAtEveryPoolSize) {
  // Routing is single-threaded at barriers and shards are independent
  // between them, so the pool size must be invisible in the results —
  // including under the suspension-overhead model, whose per-shard cost
  // tables grow concurrently with the run.
  const auto fleet = smallFleetTrace(4);
  FederationConfig base;
  base.shards = 4;
  base.routingDelay = 30;
  base.diskSwapOverhead = true;

  std::vector<std::string> reference;
  FleetStats referenceRun;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    FederationConfig config = base;
    config.threads = threads;
    auto run = runFleet(fleet, "ss:2", "least-loaded", config);
    auto metrics = shardMetrics(run);
    if (reference.empty()) {
      reference = std::move(metrics);
      referenceRun = std::move(run);
      continue;
    }
    EXPECT_EQ(run.assignments, referenceRun.assignments)
        << "threads=" << threads;
    EXPECT_EQ(run.effectiveSubmits, referenceRun.effectiveSubmits);
    EXPECT_EQ(run.epochs, referenceRun.epochs);
    EXPECT_EQ(metrics, reference) << "threads=" << threads;
  }
}

// ------------------------------------------------------- fleet aggregates

TEST(FleetStats, AggregatesSumAcrossShards) {
  const auto fleet = smallFleetTrace(2);
  FederationConfig config;
  config.shards = 2;
  const auto run = runFleet(fleet, "ss:2", "hash", config);
  ASSERT_EQ(run.shards.size(), 2u);
  EXPECT_EQ(run.jobCount(), fleet.jobs.size());
  EXPECT_EQ(run.eventsProcessed(),
            run.shards[0].eventsProcessed + run.shards[1].eventsProcessed);
  EXPECT_EQ(run.suspensions(),
            run.shards[0].suspensions + run.shards[1].suspensions);
  EXPECT_EQ(run.span(), std::max(run.shards[0].span, run.shards[1].span));
  const auto merged = run.counters();
  EXPECT_EQ(merged.value(obs::Counter::SimEvents),
            run.shards[0].counters.value(obs::Counter::SimEvents) +
                run.shards[1].counters.value(obs::Counter::SimEvents));
  EXPECT_GT(run.utilization(), 0.0);
  EXPECT_GT(run.meanBoundedSlowdown(), 0.0);
}

// ------------------------------------------------------- fleet generator

TEST(FleetTrace, ClustersOneIsBitIdenticalToGenerateTrace) {
  const auto cfg = workload::sdscConfig(200, 5);
  const auto plain = workload::generateTrace(cfg);
  const auto fleet = workload::generateFleetTrace(cfg, 1);
  ASSERT_EQ(fleet.jobs.size(), plain.jobs.size());
  for (JobId id = 0; id < plain.jobs.size(); ++id) {
    EXPECT_EQ(fleet.jobs[id].submit, plain.jobs[id].submit);
    EXPECT_EQ(fleet.jobs[id].runtime, plain.jobs[id].runtime);
    EXPECT_EQ(fleet.jobs[id].procs, plain.jobs[id].procs);
  }
  EXPECT_EQ(fleet.name, "SDSC-synth-fleet1x");
}

TEST(FleetTrace, ClusterCountCompressesArrivalsOnly) {
  const auto cfg = workload::sdscConfig(200, 5);
  const auto one = workload::generateFleetTrace(cfg, 1);
  const auto four = workload::generateFleetTrace(cfg, 4);
  ASSERT_EQ(four.jobs.size(), one.jobs.size());
  workload::validateTrace(four);
  for (JobId id = 0; id < one.jobs.size(); ++id) {
    EXPECT_EQ(four.jobs[id].submit,
              static_cast<Time>(
                  std::llround(static_cast<double>(one.jobs[id].submit) / 4)));
    EXPECT_EQ(four.jobs[id].runtime, one.jobs[id].runtime);
    EXPECT_EQ(four.jobs[id].procs, one.jobs[id].procs);
  }
}

}  // namespace
}  // namespace sps::fed
