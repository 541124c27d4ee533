// Shared test fixtures: trace builders and a scripted policy for driving the
// simulator deterministically from tests.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "workload/job.hpp"
#include "workload/transforms.hpp"

namespace sps::test {

/// Compact job literal: submit, runtime, procs, optional estimate/memory.
struct J {
  Time submit;
  Time runtime;
  std::uint32_t procs;
  Time estimate = 0;  ///< 0 = accurate (estimate == runtime)
  std::uint32_t memoryMb = 0;
};

inline workload::Trace makeTrace(std::uint32_t machineProcs,
                                 std::vector<J> jobs,
                                 std::string name = "test") {
  workload::Trace trace;
  trace.name = std::move(name);
  trace.machineProcs = machineProcs;
  for (const J& spec : jobs) {
    workload::Job job;
    job.submit = spec.submit;
    job.runtime = spec.runtime;
    job.estimate = spec.estimate == 0 ? spec.runtime : spec.estimate;
    job.procs = spec.procs;
    job.memoryMb = spec.memoryMb;
    trace.jobs.push_back(job);
  }
  workload::normalizeTrace(trace);
  workload::validateTrace(trace);
  return trace;
}

/// A policy whose behaviour is scripted through std::function hooks —
/// defaults to greedy FCFS-ish dispatch so simple tests need no hooks.
class ScriptedPolicy final : public sim::SchedulingPolicy {
 public:
  std::function<void(sim::Simulator&, JobId)> arrival;
  std::function<void(sim::Simulator&, JobId)> completion;
  std::function<void(sim::Simulator&, JobId)> drained;
  std::function<void(sim::Simulator&, std::uint64_t)> timer;
  /// supportsCancel(): whether Queued/Suspended jobs may be withdrawn.
  bool cancellable = false;

  [[nodiscard]] std::string name() const override { return "scripted"; }
  [[nodiscard]] bool supportsCancel() const override { return cancellable; }

  void onJobArrival(sim::Simulator& s, JobId j) override {
    if (arrival) arrival(s, j);
    else greedy(s);
  }
  void onJobCompletion(sim::Simulator& s, JobId j) override {
    if (completion) completion(s, j);
    else greedy(s);
  }
  void onSuspendDrained(sim::Simulator& s, JobId j) override {
    if (drained) drained(s, j);
    else greedy(s);
  }
  void onTimer(sim::Simulator& s, std::uint64_t tag) override {
    if (timer) timer(s, tag);
  }

  /// Start/resume everything that fits, lowest id first.
  static void greedy(sim::Simulator& s) {
    bool progress = true;
    while (progress) {
      progress = false;
      std::vector<JobId> queued(s.queuedJobs());
      std::sort(queued.begin(), queued.end());
      for (JobId id : queued) {
        if (s.job(id).procs <= s.freeCount()) {
          s.startJob(id);
          progress = true;
          break;
        }
      }
      if (progress) continue;
      std::vector<JobId> susp(s.suspendedJobs());
      std::sort(susp.begin(), susp.end());
      for (JobId id : susp) {
        if (s.state(id) == sim::JobState::Suspended &&
            s.exec(id).procs.isSubsetOf(s.freeSet())) {
          s.resumeJob(id);
          progress = true;
          break;
        }
      }
    }
  }
};

/// Each job's execution state as it reads in the observer of its Finished
/// transition, the last moment Simulator::exec() is valid for it. After the
/// run only Simulator::outcome() remains, so tests that check a job's final
/// processors, work or wait read them from here. Construct before the run;
/// it subscribes to `s` and must outlive it.
class FinishedExecLog {
 public:
  struct Entry {
    sim::ProcSet procs;
    Time remainingWork = -1;
    Time accumulatedWait = -1;
  };

  explicit FinishedExecLog(sim::Simulator& s) {
    s.observers().onStateChange([this](const sim::Simulator& sim, JobId id,
                                       sim::JobState, sim::JobState to) {
      if (to != sim::JobState::Finished) return;
      if (id >= entries_.size()) entries_.resize(id + 1);
      const sim::JobExec& x = sim.exec(id);
      entries_[id] = {x.procs, x.remainingWork, sim.accumulatedWait(id)};
    });
  }
  FinishedExecLog(const FinishedExecLog&) = delete;
  FinishedExecLog& operator=(const FinishedExecLog&) = delete;

  /// Throws std::out_of_range for a job that never finished.
  [[nodiscard]] const Entry& operator[](JobId id) const {
    return entries_.at(id);
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace sps::test
