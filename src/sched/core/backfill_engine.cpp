#include "sched/core/backfill_engine.hpp"

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::sched::kernel {

BackfillEngine::Anchor BackfillEngine::anchorOf(
    const sim::Simulator& simulator, JobId job) const {
  simulator.counters().inc(obs::Counter::AnchorQueries);
  const auto& j = simulator.job(job);
  const Time now = simulator.now();
  const Time start =
      ledger_.profile().findAnchor(now, j.estimate, j.procs);
  return {start, start == now && j.procs <= simulator.freeCount()};
}

BackfillEngine::Shadow BackfillEngine::shadowOf(const sim::Simulator& simulator,
                                                JobId head) {
  simulator.counters().inc(obs::Counter::ShadowQueries);
  const auto& j = simulator.job(head);
  const Time now = simulator.now();
  // Zombie overlay: jobs whose estimated end has passed still hold their
  // processors until their completion events fire later in this batch. Pin
  // them busy for one second so the shadow cannot land at `now` (the head
  // does not physically fit — that is why it is still queued).
  const std::uint32_t zombies = ledger_.zombieProcsAt(now);
  AvailabilityProfile& profile = ledger_.mutableProfile();
  profile.addBusy(now, now + 1, zombies);
  const Time shadow = profile.findAnchor(now, j.estimate, j.procs);
  SPS_CHECK_MSG(shadow > now, "head fits now but was left queued");
  const std::uint32_t freeAtShadow = profile.freeAt(shadow);
  profile.removeBusy(now, now + 1, zombies);
  SPS_CHECK(freeAtShadow >= j.procs);
  return {shadow, freeAtShadow - j.procs};
}

bool BackfillEngine::canBackfill(const sim::Simulator& simulator, JobId job,
                                 const Shadow& shadow) const {
  simulator.counters().inc(obs::Counter::BackfillTests);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("kernel", "backfill.test", simulator.now(), job));
  const auto& j = simulator.job(job);
  if (j.procs > simulator.freeCount()) return false;
  return simulator.now() + j.estimate <= shadow.time || j.procs <= shadow.extra;
}

bool completionPreservesProfile(const sim::Simulator& simulator, JobId job) {
  const auto& x = simulator.outcome(job);
  return x.suspendCount == 0 &&
         x.firstStart + simulator.job(job).estimate <= simulator.now();
}

}  // namespace sps::sched::kernel
