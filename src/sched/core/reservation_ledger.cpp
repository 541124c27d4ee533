#include "sched/core/reservation_ledger.hpp"

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::sched::kernel {

namespace {
/// The scheduler's belief about a running segment: it occupies the machine
/// for the full user estimate from segment start. Uniform across fresh and
/// resumed segments (both frozen at segment start, as a from-scratch
/// rebuild would enter them); the profile-driven policies are
/// non-preemptive, so the resumed case is never exercised.
Time beliefEnd(const sim::Simulator& simulator, JobId id) {
  return simulator.exec(id).segStart + simulator.job(id).estimate;
}
}  // namespace

void ReservationLedger::attach(sim::Simulator& simulator) {
  totalProcs_ = simulator.machine().totalProcs();
  profile_ = AvailabilityProfile(simulator.now(), totalProcs_);
  running_.clear();
  byEnd_.clear();
  reservations_.clear();
  const bool firstAttach = attached_ == nullptr;
  attached_ = &simulator;
  if (firstAttach) {
    // One registration per ledger lifetime: on re-attach the observer is
    // already in place (stale simulators are filtered by `attached_`).
    // Between two refresh() calls the profile must track jobs the policy
    // starts mid-decision, so the running layer follows every transition.
    simulator.observers().onStateChange(
        [this](const sim::Simulator& s, JobId id, sim::JobState from,
               sim::JobState to) {
          if (&s == attached_) onTransition(s, id, from, to);
        });
  }
}

void ReservationLedger::refresh(const sim::Simulator& simulator) {
  SPS_CHECK_MSG(attached_ == &simulator, "ledger not attached to this run");
  simulator.counters().inc(obs::Counter::LedgerShiftOrigins);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("kernel", "ledger.shiftOrigin", simulator.now()));
  profile_.shiftOrigin(simulator.now());
}

void ReservationLedger::onTransition(const sim::Simulator& simulator, JobId id,
                                     sim::JobState from, sim::JobState to) {
  if (to == sim::JobState::Running) {
    const Time start = simulator.exec(id).segStart;
    const Time end = beliefEnd(simulator, id);
    const std::uint32_t procs = simulator.job(id).procs;
    simulator.counters().inc(obs::Counter::LedgerAddBusy);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("kernel", "ledger.addBusy", simulator.now(), id)
                  .arg("end", end)
                  .arg("procs", procs));
    profile_.addBusy(start, end, procs);
    const auto endIt = byEnd_.emplace(end, procs);
    const bool inserted =
        running_.emplace(id, RunningEntry{start, end, procs, endIt}).second;
    SPS_CHECK_MSG(inserted, "job " << id << " started while already in ledger");
  } else if (from == sim::JobState::Running) {
    const auto it = running_.find(id);
    SPS_CHECK_MSG(it != running_.end(),
                  "job " << id << " left Running without a ledger entry");
    // removeBusy clamps to the current origin; any part of the belief that
    // already elapsed (or a zombie interval entirely in the past) is gone
    // from the profile and needs no return.
    simulator.counters().inc(obs::Counter::LedgerRemoveBusy);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("kernel", "ledger.removeBusy", simulator.now(), id));
    profile_.removeBusy(it->second.start, it->second.end, it->second.procs);
    byEnd_.erase(it->second.endIt);
    running_.erase(it);
  }
}

void ReservationLedger::addReservation(JobId job, Time start, Time duration,
                                       std::uint32_t procs) {
  SPS_CHECK_MSG(reservations_.count(job) == 0,
                "job " << job << " already holds a reservation");
  const Time end = start + duration;
  if (attached_ != nullptr) {
    attached_->counters().inc(obs::Counter::LedgerReservationsAdded);
    SPS_TRACE(&attached_->recorder(),
              obs::instant("kernel", "ledger.reserve", attached_->now(), job)
                  .arg("start", start)
                  .arg("procs", procs));
  }
  reservations_.emplace(job, ReservationEntry{start, end, procs});
  profile_.addBusy(start, end, procs);
}

void ReservationLedger::removeReservation(JobId job) {
  const auto it = reservations_.find(job);
  SPS_CHECK_MSG(it != reservations_.end(),
                "job " << job << " holds no reservation");
  if (attached_ != nullptr) {
    attached_->counters().inc(obs::Counter::LedgerReservationsRemoved);
    SPS_TRACE(&attached_->recorder(),
              obs::instant("kernel", "ledger.unreserve", attached_->now(),
                           job));
  }
  profile_.removeBusy(it->second.start, it->second.end, it->second.procs);
  reservations_.erase(it);
}

void ReservationLedger::audit(const sim::Simulator& simulator) const {
  SPS_CHECK_MSG(attached_ == &simulator,
                "ledger audit against a simulator it is not attached to");
  SPS_CHECK_MSG(running_.size() == simulator.runningJobs().size(),
                "ledger audit: " << running_.size() << " running entries, "
                                 << simulator.runningJobs().size()
                                 << " running jobs");
  for (const JobId id : simulator.runningJobs()) {
    const auto it = running_.find(id);
    SPS_CHECK_MSG(it != running_.end(),
                  "ledger audit: running job " << id << " has no entry");
    SPS_CHECK_MSG(it->second.start == simulator.exec(id).segStart,
                  "ledger audit: job " << id << " entry start "
                                       << it->second.start << " != segStart "
                                       << simulator.exec(id).segStart);
    SPS_CHECK_MSG(it->second.end == beliefEnd(simulator, id),
                  "ledger audit: job " << id << " entry end "
                                       << it->second.end << " != believed end "
                                       << beliefEnd(simulator, id));
    SPS_CHECK_MSG(it->second.procs == simulator.job(id).procs,
                  "ledger audit: job " << id << " entry width "
                                       << it->second.procs << " != "
                                       << simulator.job(id).procs);
  }
  // From-scratch rebuild of the ledger's own layers at the profile's
  // current origin, compared as a
  // step function, so incremental-maintenance drift (a bad addBusy /
  // removeBusy / shiftOrigin) cannot hide behind breakpoint layout.
  AvailabilityProfile scratch(profile_.origin(), totalProcs_);
  for (const auto& [id, entry] : running_) {
    (void)id;
    scratch.addBusy(entry.start, entry.end, entry.procs);
  }
  for (const auto& [id, entry] : reservations_) {
    (void)id;
    scratch.addBusy(entry.start, entry.end, entry.procs);
  }
  SPS_CHECK_MSG(profile_.sameFunctionAs(scratch),
                "ledger audit: maintained profile diverged from a "
                "from-scratch rebuild at origin "
                    << profile_.origin());
}

std::uint32_t ReservationLedger::zombieProcsAt(Time now) const {
  std::uint32_t procs = 0;
  for (auto it = byEnd_.begin(); it != byEnd_.end() && it->first <= now; ++it)
    procs += it->second;
  return procs;
}

}  // namespace sps::sched::kernel
