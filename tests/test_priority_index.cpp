// kernel::PriorityIndex (`ctest -L kernel`): the maintained idle order must
// equal a from-scratch sort at every event. A preemptive probe policy walks
// an attached index of each IndexOrder at every callback of a random SDSC
// run with suspensions — before and after it acts, so walks see arrivals,
// departures, re-entries and tombstones — and compares the served live
// order with std::sort over the simulator's idle set. The index's own
// audit (the sps::check hook) runs at the same points.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/core/priority_index.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using sched::kernel::IdleFilter;
using sched::kernel::IndexOrder;
using sched::kernel::PriorityIndex;

/// Greedy dispatch in submission order off the SubmitAsc index (resume a
/// suspended job whose processors are free, start a queued one that
/// fits), plus a periodic tick that suspends a pseudo-random running job
/// while work waits. Each job is suspended at most three times, so the run
/// drains.
class IndexProbe final : public sim::SchedulingPolicy {
 public:
  explicit IndexProbe(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::string name() const override { return "index-probe"; }

  void onSimulationStart(sim::Simulator& s) override {
    byPriority_.attach(s);
    bySubmit_.attach(s);
  }
  void onJobArrival(sim::Simulator& s, JobId /*job*/) override {
    verify(s);
    dispatch(s);
    verify(s);
    armTick(s);
  }
  void onJobCompletion(sim::Simulator& s, JobId /*job*/) override {
    verify(s);
    dispatch(s);
    verify(s);
  }
  void onTimer(sim::Simulator& s, std::uint64_t /*tag*/) override {
    tickArmed_ = false;
    verify(s);
    std::vector<JobId> running(s.runningJobs());
    std::sort(running.begin(), running.end());
    running.erase(std::remove_if(running.begin(), running.end(),
                                 [&s](JobId id) {
                                   return s.outcome(id).suspendCount >= 3;
                                 }),
                  running.end());
    if (!running.empty() && rng_.uniform01() < 0.7) {
      const auto pick = static_cast<std::size_t>(rng_.uniformInt(
          0, static_cast<std::int64_t>(running.size()) - 1));
      s.suspendJob(running[pick]);
      ++suspensions_;
      verify(s);
    }
    dispatch(s);
    verify(s);
    armTick(s);
  }

  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t suspensions() const { return suspensions_; }

 private:
  void armTick(sim::Simulator& s) {
    if (tickArmed_ ||
        (s.queuedJobs().empty() && s.suspendedJobs().empty()))
      return;
    tickArmed_ = true;
    s.scheduleTimer(s.now() + 5 * kMinute, 0);
  }

  void dispatch(sim::Simulator& s) {
    for (const JobId id : bySubmit_.walk(s, IdleFilter::Idle)) {
      if (s.state(id) == sim::JobState::Suspended) {
        if (s.exec(id).procs.isSubsetOf(s.freeSet())) s.resumeJob(id);
      } else if (s.job(id).procs <= s.freeCount()) {
        s.startJob(id);
      }
    }
  }

  /// The idle jobs matching `filter`, sorted afresh under `order`.
  static std::vector<JobId> freshSort(const sim::Simulator& s,
                                      IndexOrder order, IdleFilter filter) {
    std::vector<JobId> jobs;
    if (filter != IdleFilter::Suspended) jobs = s.queuedJobs();
    if (filter != IdleFilter::Queued)
      for (const JobId id : s.suspendedJobs())
        if (s.state(id) == sim::JobState::Suspended) jobs.push_back(id);
    std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
      if (order == IndexOrder::XFactorDesc && s.xfactor(a) != s.xfactor(b))
        return s.xfactor(a) > s.xfactor(b);
      if (s.job(a).submit != s.job(b).submit)
        return s.job(a).submit < s.job(b).submit;
      return a < b;
    });
    return jobs;
  }

  void verify(const sim::Simulator& s) {
    ++checks_;
    for (PriorityIndex* index : {&byPriority_, &bySubmit_}) {
      const IndexOrder order =
          index == &byPriority_ ? IndexOrder::XFactorDesc
                                : IndexOrder::SubmitAsc;
      for (const IdleFilter filter :
           {IdleFilter::Idle, IdleFilter::Queued, IdleFilter::Suspended}) {
        std::vector<JobId> served;
        for (const JobId id : index->walk(s, filter)) served.push_back(id);
        ASSERT_EQ(served, freshSort(s, order, filter))
            << "order " << static_cast<int>(order) << " filter "
            << static_cast<int>(filter) << " at t=" << s.now();
      }
      index->audit(s);
    }
  }

  Rng rng_;
  PriorityIndex byPriority_{IndexOrder::XFactorDesc};
  PriorityIndex bySubmit_{IndexOrder::SubmitAsc};
  bool tickArmed_ = false;
  std::uint64_t checks_ = 0;
  std::uint64_t suspensions_ = 0;
};

TEST(PriorityIndexOrder, ServedOrderEqualsFreshSortAtEveryEvent) {
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{17}}) {
    auto config = workload::sdscConfig(600, seed);
    config.offeredLoad = 0.9;
    const workload::Trace trace = workload::generateTrace(config);
    IndexProbe probe(seed);
    sim::Simulator simulator(trace, probe);
    simulator.run();
    EXPECT_GT(probe.suspensions(), 50U) << "seed " << seed;
    EXPECT_GT(probe.checks(), trace.jobs.size()) << "seed " << seed;
    for (JobId id = 0; id < trace.jobs.size(); ++id)
      EXPECT_EQ(simulator.state(id), sim::JobState::Finished);
  }
}

}  // namespace
}  // namespace sps
