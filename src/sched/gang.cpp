#include "sched/gang.hpp"

#include <algorithm>
#include <sstream>

#include "sim/simulator.hpp"

namespace sps::sched {

GangScheduler::GangScheduler(GangConfig config) : config_(config) {
  SPS_CHECK_MSG(config_.slotQuantum > 0, "gang quantum must be positive");
  SPS_CHECK_MSG(config_.maxSlots >= 1, "gang needs at least one slot");
}

std::string GangScheduler::name() const {
  std::ostringstream os;
  os << "Gang(slots=" << config_.maxSlots << ")";
  return os.str();
}

std::size_t GangScheduler::findSlotFor(const sim::Simulator& s,
                                       std::uint32_t procs) const {
  for (std::size_t k = 0; k < slots_.size(); ++k)
    if (slots_[k].load + procs <= s.machine().totalProcs()) return k;
  return slots_.size();
}

bool GangScheduler::placeJob(sim::Simulator& simulator, JobId job) {
  const std::uint32_t procs = simulator.job(job).procs;
  std::size_t k = findSlotFor(simulator, procs);
  if (k == slots_.size()) {
    if (slots_.size() >= config_.maxSlots) return false;
    slots_.emplace_back();
  }
  slots_[k].jobs.push_back(job);
  slots_[k].load += procs;
  // A job landing in the active row starts right away (unless a switch is
  // mid-drain; launchActiveSlot runs again when the switch completes).
  if (k == active_ && !switching_) launchActiveSlot(simulator);
  if (slots_.size() > 1) armQuantum(simulator);
  return true;
}

void GangScheduler::launchActiveSlot(sim::Simulator& simulator) {
  SPS_CHECK(active_ < slots_.size());
  // Resume previously-run members first: they must reclaim their exact
  // processors before first-time starts can grab anything.
  for (JobId id : slots_[active_].jobs) {
    if (simulator.state(id) == sim::JobState::Suspended)
      simulator.resumeJob(id);
  }
  for (JobId id : slots_[active_].jobs) {
    if (simulator.state(id) == sim::JobState::Queued &&
        simulator.outcome(id).suspendCount == 0)
      simulator.startJob(id);
  }
}

void GangScheduler::armQuantum(sim::Simulator& simulator) {
  // Do not reset a pending quantum (arrivals must not postpone the switch);
  // the epoch counter invalidates timers orphaned by slot-count changes.
  if (quantumArmed_) return;
  quantumArmed_ = true;
  ++quantumEpoch_;
  simulator.scheduleTimer(simulator.now() + config_.slotQuantum,
                          quantumEpoch_);
}

void GangScheduler::onTimer(sim::Simulator& simulator, std::uint64_t tag) {
  if (tag != quantumEpoch_) return;  // superseded
  quantumArmed_ = false;
  if (switching_ || slots_.size() <= 1) return;
  beginSwitch(simulator);
}

void GangScheduler::beginSwitch(sim::Simulator& simulator) {
  SPS_CHECK(!switching_);
  SPS_CHECK(slots_.size() > 1);
  switching_ = true;
  targetSlot_ = (active_ + 1) % slots_.size();
  drainsOutstanding_ = 0;
  // Suspend the whole active row. With an overhead model the write-outs
  // drain asynchronously; the target row activates once the last one ends.
  const std::vector<JobId> members = slots_[active_].jobs;
  for (JobId id : members) {
    if (simulator.state(id) != sim::JobState::Running) continue;
    simulator.suspendJob(id);
    if (simulator.state(id) == sim::JobState::Suspending)
      ++drainsOutstanding_;
  }
  finishSwitchIfDrained(simulator);
}

void GangScheduler::finishSwitchIfDrained(sim::Simulator& simulator) {
  if (!switching_ || drainsOutstanding_ != 0) return;
  switching_ = false;
  active_ = targetSlot_;
  ++switches_;
  launchActiveSlot(simulator);
  if (slots_.size() > 1) armQuantum(simulator);
}

void GangScheduler::onSuspendDrained(sim::Simulator& simulator,
                                     JobId /*job*/) {
  SPS_CHECK(drainsOutstanding_ > 0);
  --drainsOutstanding_;
  finishSwitchIfDrained(simulator);
}

void GangScheduler::onJobArrival(sim::Simulator& simulator, JobId job) {
  if (!placeJob(simulator, job)) pending_.push_back(job);
}

void GangScheduler::removeJob(sim::Simulator& simulator, JobId job) {
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    auto& jobs = slots_[k].jobs;
    auto it = std::find(jobs.begin(), jobs.end(), job);
    if (it == jobs.end()) continue;
    jobs.erase(it);
    slots_[k].load -= simulator.job(job).procs;
    if (jobs.empty()) {
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(k));
      if (slots_.empty()) {
        active_ = 0;
      } else {
        if (switching_ && targetSlot_ >= k && targetSlot_ > 0) --targetSlot_;
        if (active_ >= k && active_ > 0) --active_;
        if (switching_) targetSlot_ %= slots_.size();
        active_ %= slots_.size();
      }
    }
    return;
  }
  SPS_CHECK_MSG(false, "completed job " << job << " not found in any slot");
}

void GangScheduler::drainPendingQueue(sim::Simulator& simulator) {
  while (!pending_.empty()) {
    const JobId job = pending_.front();
    if (!placeJob(simulator, job)) break;  // matrix still full
    pending_.pop_front();
  }
}

void GangScheduler::onJobCompletion(sim::Simulator& simulator, JobId job) {
  removeJob(simulator, job);
  drainPendingQueue(simulator);
  // Capacity freed inside the active row: late members may now start.
  if (!switching_ && !slots_.empty()) launchActiveSlot(simulator);
}

void GangScheduler::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(pending_.empty(), "gang overflow queue not drained");
  SPS_CHECK_MSG(slots_.empty(), "gang matrix not empty at end of run");
  SPS_CHECK_MSG(!switching_, "gang switch left incomplete");
}

}  // namespace sps::sched
