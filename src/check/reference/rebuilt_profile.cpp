#include "check/reference/rebuilt_profile.hpp"

#include "obs/counters.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::check {

namespace {
Time believedEnd(const sim::Simulator& simulator, JobId id) {
  return simulator.exec(id).segStart + simulator.job(id).estimate;
}
}  // namespace

sched::AvailabilityProfile runningProfile(const sim::Simulator& simulator) {
  sched::AvailabilityProfile profile(simulator.now(),
                                     simulator.machine().totalProcs());
  for (const JobId id : simulator.runningJobs())
    occupy(profile, simulator, id, simulator.exec(id).segStart);
  return profile;
}

void occupy(sched::AvailabilityProfile& profile,
            const sim::Simulator& simulator, JobId job, Time start) {
  const auto& j = simulator.job(job);
  profile.addBusy(start, start + j.estimate, j.procs);
}

RebuiltAnchor anchorAgainst(const sched::AvailabilityProfile& profile,
                            const sim::Simulator& simulator, JobId job) {
  simulator.counters().inc(obs::Counter::AnchorQueries);
  const auto& j = simulator.job(job);
  const Time now = simulator.now();
  const Time start = profile.findAnchor(now, j.estimate, j.procs);
  return {start, start == now && j.procs <= simulator.freeCount()};
}

RebuiltShadow shadowAgainstRunning(const sim::Simulator& simulator,
                                   JobId head) {
  simulator.counters().inc(obs::Counter::ShadowQueries);
  const auto& j = simulator.job(head);
  const Time now = simulator.now();
  sched::AvailabilityProfile profile = runningProfile(simulator);
  profile.addBusy(now, now + 1, zombieProcs(simulator));
  const Time shadow = profile.findAnchor(now, j.estimate, j.procs);
  SPS_CHECK_MSG(shadow > now, "head fits now but was left queued");
  const std::uint32_t freeAtShadow = profile.freeAt(shadow);
  SPS_CHECK(freeAtShadow >= j.procs);
  return {shadow, freeAtShadow - j.procs};
}

bool backfillsUnder(const sim::Simulator& simulator, JobId job,
                    const RebuiltShadow& shadow) {
  simulator.counters().inc(obs::Counter::BackfillTests);
  const auto& j = simulator.job(job);
  if (j.procs > simulator.freeCount()) return false;
  return simulator.now() + j.estimate <= shadow.time || j.procs <= shadow.extra;
}

std::uint32_t zombieProcs(const sim::Simulator& simulator) {
  std::uint32_t procs = 0;
  for (const JobId id : simulator.runningJobs())
    if (believedEnd(simulator, id) <= simulator.now())
      procs += simulator.job(id).procs;
  return procs;
}

}  // namespace sps::check
