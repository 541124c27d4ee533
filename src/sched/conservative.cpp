#include "sched/conservative.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

void ConservativeBackfill::onSimulationStart(sim::Simulator& simulator) {
  ledger_.attach(simulator);
  reservations_.clear();
  guaranteeIndex_.clear();
}

void ConservativeBackfill::recordReservation(sim::Simulator& simulator,
                                             JobId job, Time start) {
  const auto& j = simulator.job(job);
  ledger_.addReservation(job, start, j.estimate, j.procs);
  guaranteeIndex_.emplace(job, start);
}

void ConservativeBackfill::onJobArrival(sim::Simulator& simulator, JobId job) {
  // Anchor against running jobs + every existing reservation. A job whose
  // estimated end is exactly now() has its completion event pending in the
  // same timestamp batch — the ledger treats it as done, and the startNow
  // test defers starts that do not physically fit until that completion
  // fires.
  ledger_.refresh(simulator);
  const auto anchor = engine_.anchorOf(simulator, job);
  if (anchor.startNow) {
    simulator.startJob(job);
  } else {
    recordReservation(simulator, job, anchor.start);
    auto pos = std::upper_bound(
        reservations_.begin(), reservations_.end(), anchor.start,
        [](Time t, const Reservation& r) { return t < r.start; });
    reservations_.insert(pos, {job, anchor.start});
  }
}

void ConservativeBackfill::onJobCompletion(sim::Simulator& simulator,
                                           JobId job) {
  // On-time completions leave the availability function untouched for
  // t >= now (the belief interval expired exactly), and re-anchoring in
  // guarantee order against an unchanged function is the identity: a
  // candidate window earlier than a reservation's start fails at a time
  // strictly before that start, where none of the (later-starting)
  // reservations compression strips could have been the blocker. The full
  // O(reservations x profile) compression therefore reduces to starting
  // the due (start == now) prefix. check::ReferenceConservative compresses
  // on every completion; the differential suites pin the two to identical
  // schedules.
  if (kernel::completionPreservesProfile(simulator, job)) {
    simulator.counters().inc(obs::Counter::CompletionFastPaths);
    startDueReservations(simulator);
  } else {
    compress(simulator);
  }
}

void ConservativeBackfill::startDueReservations(sim::Simulator& simulator) {
  ledger_.refresh(simulator);
  const Time now = simulator.now();
  std::size_t scan = 0;
  std::size_t keep = 0;
  for (; scan < reservations_.size() && reservations_[scan].start <= now;
       ++scan) {
    const Reservation r = reservations_[scan];
    SPS_CHECK_MSG(r.start == now,
                  "reservation for job " << r.job << " missed its slot");
    if (simulator.job(r.job).procs <= simulator.freeCount()) {
      ledger_.removeReservation(r.job);
      guaranteeIndex_.erase(r.job);
      // The ledger's observer re-enters the identical interval as a
      // running segment, so the profile function is preserved.
      simulator.startJob(r.job);
    } else {
      // A completion pending in this timestamp batch still holds the
      // processors; the guarantee stays put and the cascade retries.
      reservations_[keep++] = r;
    }
  }
  reservations_.erase(reservations_.begin() + static_cast<std::ptrdiff_t>(keep),
                      reservations_.begin() + static_cast<std::ptrdiff_t>(scan));
}

void ConservativeBackfill::compress(sim::Simulator& simulator) {
  simulator.counters().inc(obs::Counter::FullPasses);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("policy", "conservative.compress", simulator.now()));
  // Release reservations in order of increasing start guarantee and
  // re-anchor each against the profile of running jobs + the reservations
  // re-anchored so far (paper, Section II-A.1). Every reservation leaves
  // the ledger first: re-anchoring job k must not see jobs k+1.. at their
  // OLD slots.
  ledger_.refresh(simulator);
  std::vector<Reservation> old;
  old.swap(reservations_);
  guaranteeIndex_.clear();
  for (const Reservation& r : old) ledger_.removeReservation(r.job);
  for (const Reservation& r : old) {
    const auto anchor = engine_.anchorOf(simulator, r.job);
    SPS_CHECK_MSG(anchor.start <= r.start,
                  "compression regressed guarantee of job "
                      << r.job << ": " << r.start << " -> " << anchor.start);
    // A start can be deferred when the anchor's processors belong to a job
    // completing at this very instant (its completion event is still
    // pending): keep the reservation at the anchor; the completion cascade
    // re-runs compression at the same timestamp and starts the job then.
    if (anchor.startNow) {
      // The ledger picks the running segment up via its observer.
      simulator.startJob(r.job);
    } else {
      recordReservation(simulator, r.job, anchor.start);
      reservations_.push_back({r.job, anchor.start});
    }
  }
  // Anchors are found in nondecreasing... not necessarily sorted: keep order.
  std::stable_sort(reservations_.begin(), reservations_.end(),
                   [](const Reservation& a, const Reservation& b) {
                     return a.start < b.start;
                   });
}

Time ConservativeBackfill::guaranteeOf(JobId job) const {
  const auto it = guaranteeIndex_.find(job);
  return it == guaranteeIndex_.end() ? kNoTime : it->second;
}

void ConservativeBackfill::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(reservations_.empty(),
                "reservations remain at end of run — jobs stranded");
}

}  // namespace sps::sched
