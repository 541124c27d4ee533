// Re-anchor-on-every-event reservation-depth backfilling — the
// differential reference for sched::DepthBackfill.
//
// Every arrival and every completion re-derives the whole decision: the
// availability profile is rebuilt from the running jobs
// (rebuilt_profile.hpp), the first `depth` queued jobs are re-anchored in
// increasing old guarantee (ties in id order; never-guaranteed jobs last)
// and enter the profile as reservations, and every other queued job
// starts iff its earliest anchor against that profile is now. It uses
// neither the kernel's reservation ledger nor its backfill engine, and
// takes neither of the production class's fast paths (arrivals, on-time
// completions), so a fault in any of them shows up as a schedule
// divergence against this class.
// check::referencePolicy returns it for "depth:<K|inf>".
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sched/depth_backfill.hpp"
#include "sim/policy.hpp"

namespace sps::check {

class ReferenceDepthBackfill final : public sim::SchedulingPolicy {
 public:
  explicit ReferenceDepthBackfill(sched::DepthConfig config);

  [[nodiscard]] std::string name() const override;

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Current guarantee of a queued job, or kNoTime when it holds none.
  [[nodiscard]] Time guaranteeOf(JobId job) const;

 private:
  void rebuild(sim::Simulator& simulator);

  sched::DepthConfig config_;
  std::vector<JobId> queue_;  ///< submission (id) order
  /// (job, guarantee) for the reserved jobs, in id order.
  std::vector<std::pair<JobId, Time>> guarantees_;
};

}  // namespace sps::check
