#include "check/reference/depth_reference.hpp"

#include <algorithm>

#include "check/reference/rebuilt_profile.hpp"
#include "obs/counters.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::check {

ReferenceDepthBackfill::ReferenceDepthBackfill(sched::DepthConfig config)
    : config_(config) {
  SPS_CHECK_MSG(config_.depth >= 1, "reservation depth must be >= 1");
}

std::string ReferenceDepthBackfill::name() const {
  if (config_.depth == sched::kUnlimitedDepth) return "Depth-BF(inf)";
  return "Depth-BF(" + std::to_string(config_.depth) + ")";
}

void ReferenceDepthBackfill::onSimulationStart(sim::Simulator& /*simulator*/) {
  queue_.clear();
  guarantees_.clear();
}

void ReferenceDepthBackfill::onJobArrival(sim::Simulator& simulator,
                                          JobId job) {
  queue_.push_back(job);
  rebuild(simulator);
}

void ReferenceDepthBackfill::onJobCompletion(sim::Simulator& simulator,
                                             JobId /*job*/) {
  rebuild(simulator);
}

void ReferenceDepthBackfill::rebuild(sim::Simulator& simulator) {
  simulator.counters().inc(obs::Counter::FullPasses);
  const Time now = simulator.now();
  sched::AvailabilityProfile profile = runningProfile(simulator);

  // Pass 1: the first `depth` queued jobs, re-anchored in increasing old
  // guarantee so that each old slot stays feasible and no guarantee
  // regresses. Jobs that held none anchor last, in queue order.
  const std::size_t passOne = std::min(config_.depth, queue_.size());
  std::vector<std::pair<Time, JobId>> order;
  for (std::size_t i = 0; i < passOne; ++i) {
    const Time previous = guaranteeOf(queue_[i]);
    order.emplace_back(previous == kNoTime ? kTimeMax : previous, queue_[i]);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<JobId> waiting;
  guarantees_.clear();
  for (const auto& [previous, id] : order) {
    const RebuiltAnchor anchor = anchorAgainst(profile, simulator, id);
    SPS_CHECK_MSG(anchor.start <= previous,
                  "reference depth guarantee regressed for job " << id);
    if (anchor.startNow) {
      simulator.startJob(id);
      occupy(profile, simulator, id, now);
    } else {
      occupy(profile, simulator, id, anchor.start);
      waiting.push_back(id);
      guarantees_.emplace_back(id, anchor.start);
    }
  }
  std::sort(guarantees_.begin(), guarantees_.end());

  // Pass 2: every other queued job backfills iff its earliest anchor
  // against running jobs, reservations and earlier backfills is now.
  for (std::size_t i = passOne; i < queue_.size(); ++i) {
    const JobId id = queue_[i];
    if (anchorAgainst(profile, simulator, id).startNow) {
      simulator.counters().inc(obs::Counter::BackfillStarts);
      simulator.startJob(id);
      occupy(profile, simulator, id, now);
    } else {
      waiting.push_back(id);
    }
  }
  std::sort(waiting.begin(), waiting.end());
  queue_.swap(waiting);
}

Time ReferenceDepthBackfill::guaranteeOf(JobId job) const {
  const auto it = std::lower_bound(
      guarantees_.begin(), guarantees_.end(), job,
      [](const std::pair<JobId, Time>& entry, JobId id) {
        return entry.first < id;
      });
  return it == guarantees_.end() || it->first != job ? kNoTime : it->second;
}

void ReferenceDepthBackfill::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(queue_.empty(), "reference depth queue not drained");
}

}  // namespace sps::check
