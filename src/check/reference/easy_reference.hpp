// Restart-scan EASY: the backfill pass sched::EasyBackfill ran before it
// scanned the queue once per pass. After every backfill start it rebuilds
// the profile of running jobs, recomputes the head's shadow and rescans
// the queue from the second entry. It uses neither the kernel's
// reservation ledger nor its backfill engine (rebuilt_profile.hpp restates
// the shadow and backfill rules). It is the differential reference the
// one-pass scan must reproduce: same schedules, and the same
// backfill-start, full-pass and arrival-fast-path counts.
// check::referencePolicy returns it for EASY and SJF-backfill.
#pragma once

#include <algorithm>
#include <vector>

#include "check/reference/rebuilt_profile.hpp"
#include "obs/counters.hpp"
#include "sched/easy.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::check {

class RestartScanEasy final : public sim::SchedulingPolicy {
 public:
  /// `arrivalFastPath` = false sends every arrival through a full pass, so
  /// the reference also checks the production arrival fast path.
  explicit RestartScanEasy(sched::QueueOrder order,
                           bool arrivalFastPath = true)
      : order_(order), fastPath_(arrivalFastPath) {}

  [[nodiscard]] std::string name() const override { return "restart-scan"; }
  [[nodiscard]] bool supportsCancel() const override { return true; }
  [[nodiscard]] std::uint64_t backfillCount() const { return backfills_; }

  void onSimulationStart(sim::Simulator& /*simulator*/) override {
    queue_.clear();
  }

  void onJobArrival(sim::Simulator& simulator, JobId job) override {
    enqueue(simulator, job);
    if (fastPath_ && queue_.size() > 1 && queue_.front() != job) {
      if (zombieProcs(simulator) == 0) {
        simulator.counters().inc(obs::Counter::ArrivalFastPaths);
        const auto shadow = shadowAgainstRunning(simulator, queue_.front());
        if (backfillsUnder(simulator, job, shadow)) {
          queue_.erase(std::find(queue_.begin(), queue_.end(), job));
          simulator.counters().inc(obs::Counter::BackfillStarts);
          simulator.startJob(job);
          ++backfills_;
        }
        return;
      }
    }
    schedulePass(simulator);
  }

  void onJobCompletion(sim::Simulator& simulator, JobId /*job*/) override {
    schedulePass(simulator);
  }

  void onJobCancelled(sim::Simulator& simulator, JobId job) override {
    queue_.erase(std::find(queue_.begin(), queue_.end(), job));
    schedulePass(simulator);
  }

  void onSimulationEnd(sim::Simulator& /*simulator*/) override {
    SPS_CHECK_MSG(queue_.empty(), "reference queue not drained");
  }

 private:
  void enqueue(const sim::Simulator& simulator, JobId job) {
    if (order_ == sched::QueueOrder::Fcfs) {
      queue_.push_back(job);
      return;
    }
    const auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), job, [&simulator](JobId a, JobId b) {
          const auto& ja = simulator.job(a);
          const auto& jb = simulator.job(b);
          if (ja.estimate != jb.estimate) return ja.estimate < jb.estimate;
          if (ja.submit != jb.submit) return ja.submit < jb.submit;
          return a < b;
        });
    queue_.insert(pos, job);
  }

  void schedulePass(sim::Simulator& simulator) {
    simulator.counters().inc(obs::Counter::FullPasses);
    while (!queue_.empty() &&
           simulator.job(queue_.front()).procs <= simulator.freeCount()) {
      simulator.startJob(queue_.front());
      queue_.erase(queue_.begin());
    }
    bool progress = true;
    while (progress && !queue_.empty()) {
      progress = false;
      const auto shadow = shadowAgainstRunning(simulator, queue_.front());
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        const JobId id = queue_[i];
        if (!backfillsUnder(simulator, id, shadow)) continue;
        simulator.counters().inc(obs::Counter::BackfillStarts);
        simulator.startJob(id);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        ++backfills_;
        progress = true;
        break;  // recompute shadow/extra against the new machine state
      }
    }
  }

  sched::QueueOrder order_;
  bool fastPath_;
  std::vector<JobId> queue_;
  std::uint64_t backfills_ = 0;
};

}  // namespace sps::check
