// Rebuild-shaped Selective Suspension — the differential reference for
// sched::SelectiveSuspension (SS, TSS and online TSS).
//
// It implements the same policy (paper Section IV: xfactor priority, the
// SF ratio test, the half-width rule, local-preemption reentry, TSS victim
// protection, the owed-processor disciplines and preemptor claims) in the
// most direct shape: every walk gathers the idle jobs and sorts them
// afresh, every candidate recomputes its fences from the simulator, and the
// preemption pass sorts the running set and tests victims one by one. It
// uses neither kernel index (PriorityIndex, VictimIndex) and takes none of
// the production class's fast paths (arrival shortcut, tick gate, claim
// gate, cached usable counts, walk fast-outs), so a bug in any of them
// shows up as a schedule divergence against this class.
//
// The production class must reproduce this one bit-identically: the same
// transition stream, per-job records, Preemptions counter and
// preemptionsInitiated(). It is built through check::referencePolicy.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/selective_suspension.hpp"
#include "sim/policy.hpp"
#include "sim/procset.hpp"
#include "workload/category.hpp"

namespace sps::check {

class ReferenceSelectiveSuspension final : public sim::SchedulingPolicy {
 public:
  explicit ReferenceSelectiveSuspension(sched::SsConfig config);

  [[nodiscard]] std::string name() const override;

  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSuspendDrained(sim::Simulator& simulator, JobId job) override;
  void onTimer(sim::Simulator& simulator, std::uint64_t tag) override;
  [[nodiscard]] bool supportsCancel() const override { return true; }
  void onJobCancelled(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Preemptions initiated (== victims suspended) so far.
  [[nodiscard]] std::uint64_t preemptionsInitiated() const {
    return preemptions_;
  }

 private:
  /// A preemptor whose victims' processors are still draining; `exact`
  /// claims fence the reentrant's saved set, count claims its width.
  struct Claim {
    JobId job;
    bool exact;
  };

  [[nodiscard]] bool isClaimant(JobId id) const;
  [[nodiscard]] std::uint32_t claimedCount(const sim::Simulator& s) const;
  [[nodiscard]] sim::ProcSet claimedSet(const sim::Simulator& s) const;
  /// Union of the saved sets of fully-suspended jobs, gathered from the
  /// suspended list (empty in the migratable model).
  [[nodiscard]] sim::ProcSet suspendedSets(const sim::Simulator& s) const;

  void startFreshPreferring(sim::Simulator& s, JobId id);
  [[nodiscard]] bool victimEligible(const sim::Simulator& s, JobId victim,
                                    double preemptorPriority,
                                    std::uint32_t preemptorWidth,
                                    bool reentry) const;
  void dispatch(sim::Simulator& simulator);
  void preemptionPass(sim::Simulator& simulator);
  void suspend(sim::Simulator& simulator, JobId victim);
  void armTick(sim::Simulator& simulator);

  sched::SsConfig config_;
  std::vector<Claim> claims_;
  bool tickArmed_ = false;
  std::uint64_t preemptions_ = 0;
  /// Online TSS: (count, mean bounded slowdown) of completed jobs per
  /// estimate-based category.
  std::array<std::pair<std::uint64_t, double>, workload::kNumCategories16>
      onlineSlowdowns_{};
};

}  // namespace sps::check
