#include "check/reference/conservative_reference.hpp"

#include <algorithm>

#include "check/reference/rebuilt_profile.hpp"
#include "obs/counters.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::check {

void ReferenceConservative::onSimulationStart(sim::Simulator& /*simulator*/) {
  reservations_.clear();
}

void ReferenceConservative::onJobArrival(sim::Simulator& simulator,
                                         JobId job) {
  // Anchor against running jobs plus every existing reservation.
  sched::AvailabilityProfile profile = runningProfile(simulator);
  for (const Reservation& r : reservations_)
    occupy(profile, simulator, r.job, r.start);
  const RebuiltAnchor anchor = anchorAgainst(profile, simulator, job);
  if (anchor.startNow) {
    simulator.startJob(job);
    return;
  }
  // After every reservation that starts no later: arrivals go last among
  // equal guarantees.
  const auto pos = std::upper_bound(
      reservations_.begin(), reservations_.end(), anchor.start,
      [](Time t, const Reservation& r) { return t < r.start; });
  reservations_.insert(pos, {job, anchor.start});
}

void ReferenceConservative::onJobCompletion(sim::Simulator& simulator,
                                            JobId /*job*/) {
  compress(simulator);
}

void ReferenceConservative::compress(sim::Simulator& simulator) {
  simulator.counters().inc(obs::Counter::FullPasses);
  // Release every reservation, then re-anchor each in the order held,
  // against the running jobs plus the reservations re-anchored so far.
  const Time now = simulator.now();
  sched::AvailabilityProfile profile = runningProfile(simulator);
  std::vector<Reservation> old;
  old.swap(reservations_);
  for (const Reservation& r : old) {
    const RebuiltAnchor anchor = anchorAgainst(profile, simulator, r.job);
    SPS_CHECK_MSG(anchor.start <= r.start,
                  "reference compression regressed guarantee of job "
                      << r.job << ": " << r.start << " -> " << anchor.start);
    if (anchor.startNow) {
      simulator.startJob(r.job);
      occupy(profile, simulator, r.job, now);
    } else {
      // A start deferred by a completion pending at this instant keeps its
      // anchor; that completion compresses again and starts the job.
      occupy(profile, simulator, r.job, anchor.start);
      reservations_.push_back({r.job, anchor.start});
    }
  }
  std::stable_sort(reservations_.begin(), reservations_.end(),
                   [](const Reservation& a, const Reservation& b) {
                     return a.start < b.start;
                   });
}

Time ReferenceConservative::guaranteeOf(JobId job) const {
  const auto it = std::find_if(
      reservations_.begin(), reservations_.end(),
      [job](const Reservation& r) { return r.job == job; });
  return it == reservations_.end() ? kNoTime : it->start;
}

void ReferenceConservative::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(reservations_.empty(),
                "reference reservations remain at end of run");
}

}  // namespace sps::check
