#include "check/reference/ss_reference.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::check {

namespace {
constexpr std::uint64_t kTickTag = 0;

std::size_t estimateCategory(const workload::Job& j) {
  return workload::category16(j.estimate, j.procs);
}

/// Jobs in the suspended list that finished draining (state Suspended).
std::vector<JobId> fullySuspended(const sim::Simulator& s) {
  std::vector<JobId> jobs;
  for (const JobId id : s.suspendedJobs())
    if (s.state(id) == sim::JobState::Suspended) jobs.push_back(id);
  return jobs;
}

/// `jobs` sorted by xfactor descending, ties by submit time then id.
std::vector<JobId> byPriority(const sim::Simulator& s,
                              std::vector<JobId> jobs) {
  std::sort(jobs.begin(), jobs.end(), [&s](JobId a, JobId b) {
    const double xa = s.xfactor(a);
    const double xb = s.xfactor(b);
    if (xa != xb) return xa > xb;
    if (s.job(a).submit != s.job(b).submit)
      return s.job(a).submit < s.job(b).submit;
    return a < b;
  });
  return jobs;
}
}  // namespace

ReferenceSelectiveSuspension::ReferenceSelectiveSuspension(
    sched::SsConfig config)
    : config_(config) {
  SPS_CHECK_MSG(config_.suspensionFactor >= 1.0,
                "suspension factor must be >= 1");
  SPS_CHECK_MSG(config_.preemptionInterval > 0,
                "preemption interval must be positive");
  SPS_CHECK_MSG(!(config_.tssLimits && config_.tssOnlineMultiplier),
                "static and online TSS limits are mutually exclusive");
}

std::string ReferenceSelectiveSuspension::name() const {
  std::ostringstream os;
  if (config_.tssOnlineMultiplier) os << "TSS-online";
  else os << (config_.tssLimits ? "TSS" : "SS");
  os << "(SF=" << config_.suspensionFactor << ")";
  return os.str();
}

void ReferenceSelectiveSuspension::onJobArrival(sim::Simulator& simulator,
                                                JobId /*job*/) {
  dispatch(simulator);
  armTick(simulator);
}

void ReferenceSelectiveSuspension::onJobCompletion(sim::Simulator& simulator,
                                                   JobId job) {
  if (config_.tssOnlineMultiplier) {
    const auto& j = simulator.job(job);
    const auto tat =
        static_cast<double>(simulator.outcome(job).finish - j.submit);
    const double sd = std::max(
        1.0, tat / static_cast<double>(std::max<Time>(j.runtime, 10)));
    auto& [n, mean] = onlineSlowdowns_[estimateCategory(j)];
    ++n;
    mean += (sd - mean) / static_cast<double>(n);
  }
  dispatch(simulator);
}

void ReferenceSelectiveSuspension::onSuspendDrained(sim::Simulator& simulator,
                                                    JobId /*job*/) {
  dispatch(simulator);
}

void ReferenceSelectiveSuspension::onJobCancelled(sim::Simulator& simulator,
                                                  JobId job) {
  claims_.erase(std::remove_if(claims_.begin(), claims_.end(),
                               [job](const Claim& c) { return c.job == job; }),
                claims_.end());
  dispatch(simulator);
}

void ReferenceSelectiveSuspension::onTimer(sim::Simulator& simulator,
                                           std::uint64_t tag) {
  SPS_CHECK(tag == kTickTag);
  tickArmed_ = false;
  preemptionPass(simulator);
  dispatch(simulator);
  if (!simulator.queuedJobs().empty() || !simulator.suspendedJobs().empty())
    armTick(simulator);
}

void ReferenceSelectiveSuspension::onSimulationEnd(sim::Simulator& simulator) {
  SPS_CHECK_MSG(claims_.empty(), "unserved claims at end of run");
  SPS_CHECK_MSG(simulator.queuedJobs().empty(),
                "SS queue not drained at end of run");
  SPS_CHECK_MSG(simulator.suspendedJobs().empty(),
                "suspended jobs stranded at end of run");
}

void ReferenceSelectiveSuspension::armTick(sim::Simulator& simulator) {
  if (tickArmed_) return;
  tickArmed_ = true;
  simulator.scheduleTimer(simulator.now() + config_.preemptionInterval,
                          kTickTag);
}

bool ReferenceSelectiveSuspension::isClaimant(JobId id) const {
  return std::any_of(claims_.begin(), claims_.end(),
                     [id](const Claim& c) { return c.job == id; });
}

std::uint32_t ReferenceSelectiveSuspension::claimedCount(
    const sim::Simulator& s) const {
  std::uint32_t count = 0;
  for (const Claim& c : claims_)
    if (!c.exact) count += s.job(c.job).procs;
  return count;
}

sim::ProcSet ReferenceSelectiveSuspension::claimedSet(
    const sim::Simulator& s) const {
  sim::ProcSet fenced;
  for (const Claim& c : claims_)
    if (c.exact) fenced |= s.exec(c.job).procs;
  return fenced;
}

sim::ProcSet ReferenceSelectiveSuspension::suspendedSets(
    const sim::Simulator& s) const {
  sim::ProcSet owed;
  if (config_.migratableJobs) return owed;
  for (const JobId id : fullySuspended(s)) owed |= s.exec(id).procs;
  return owed;
}

void ReferenceSelectiveSuspension::startFreshPreferring(sim::Simulator& s,
                                                        JobId id) {
  const sim::ProcSet fenced = claimedSet(s);
  switch (config_.owedProcs) {
    case sched::OwedProcsPolicy::Squat:
      s.startJobAvoiding(id, fenced);
      break;
    case sched::OwedProcsPolicy::Prefer:
      s.startJobPreferring(id, suspendedSets(s), fenced);
      break;
    case sched::OwedProcsPolicy::Lease:
      s.startJobAvoiding(id, fenced | suspendedSets(s));
      break;
  }
}

bool ReferenceSelectiveSuspension::victimEligible(
    const sim::Simulator& s, JobId victim, double preemptorPriority,
    std::uint32_t preemptorWidth, bool reentry) const {
  if (s.state(victim) != sim::JobState::Running) return false;
  const double victimPriority = s.xfactor(victim);
  if (preemptorPriority < config_.suspensionFactor * victimPriority)
    return false;
  if (!reentry && config_.halfWidthRule &&
      2 * preemptorWidth < s.job(victim).procs)
    return false;
  const std::size_t category = estimateCategory(s.job(victim));
  if (config_.tssLimits && victimPriority >= (*config_.tssLimits)[category])
    return false;
  if (config_.tssOnlineMultiplier) {
    const auto& [n, mean] = onlineSlowdowns_[category];
    if (n >= config_.tssOnlineMinSamples &&
        victimPriority >= *config_.tssOnlineMultiplier * mean)
      return false;
  }
  return true;
}

void ReferenceSelectiveSuspension::dispatch(sim::Simulator& simulator) {
  // Claimants first, in claim order; restart the scan after each service.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      const Claim c = claims_[i];
      const sim::ProcSet fenced = claimedSet(simulator);
      const bool served =
          c.exact ? simulator.exec(c.job).procs.isSubsetOf(simulator.freeSet())
                  : (simulator.freeSet() - fenced).count() >=
                        simulator.job(c.job).procs;
      if (!served) continue;
      claims_.erase(claims_.begin() + static_cast<std::ptrdiff_t>(i));
      if (c.exact)
        simulator.resumeJob(c.job);
      else if (simulator.state(c.job) == sim::JobState::Suspended)
        simulator.resumeJobMigrating(c.job, fenced);
      else
        simulator.startJobPreferring(c.job, suspendedSets(simulator), fenced);
      progress = true;
      break;
    }
  }

  // Resume-first, in priority order, on unclaimed free processors.
  const sim::ProcSet fenced = claimedSet(simulator);
  const std::uint32_t countFence = claimedCount(simulator);
  for (const JobId id : byPriority(simulator, fullySuspended(simulator))) {
    if (simulator.state(id) != sim::JobState::Suspended || isClaimant(id))
      continue;
    const sim::ProcSet usable = simulator.freeSet() - fenced;
    const std::uint32_t usableCount = usable.count();
    if (config_.migratableJobs) {
      if (usableCount >= simulator.job(id).procs + countFence)
        simulator.resumeJobMigrating(id, fenced);
      continue;
    }
    const sim::ProcSet& procs = simulator.exec(id).procs;
    if (procs.isSubsetOf(usable) && usableCount >= procs.count() + countFence)
      simulator.resumeJob(id);
  }

  // Backfilling without guarantees: start every queued job that fits on
  // unclaimed (and, under Lease, un-owed) processors, in priority order.
  sim::ProcSet unusable = fenced;
  if (config_.owedProcs == sched::OwedProcsPolicy::Lease)
    unusable |= suspendedSets(simulator);
  for (const JobId id : byPriority(simulator, simulator.queuedJobs())) {
    if (simulator.state(id) != sim::JobState::Queued || isClaimant(id))
      continue;
    const std::uint32_t usableCount = (simulator.freeSet() - unusable).count();
    if (usableCount >= simulator.job(id).procs + countFence)
      startFreshPreferring(simulator, id);
  }
}

void ReferenceSelectiveSuspension::suspend(sim::Simulator& simulator,
                                           JobId victim) {
  simulator.counters().inc(obs::Counter::Preemptions);
  simulator.suspendJob(victim);
  ++preemptions_;
}

void ReferenceSelectiveSuspension::preemptionPass(sim::Simulator& simulator) {
  // Running priorities are frozen, so one ascending sort serves the pass;
  // jobs suspended mid-pass fail victimEligible's state test.
  std::vector<JobId> runningAsc(simulator.runningJobs());
  std::sort(runningAsc.begin(), runningAsc.end(),
            [&simulator](JobId a, JobId b) {
              const double xa = simulator.xfactor(a);
              const double xb = simulator.xfactor(b);
              if (xa != xb) return xa < xb;
              return a < b;
            });

  // Idle snapshot at pass start; the loop skips anything the pass itself
  // moved out of the idle set.
  std::vector<JobId> idle = simulator.queuedJobs();
  for (const JobId id : fullySuspended(simulator)) idle.push_back(id);
  idle = byPriority(simulator, std::move(idle));
  for (const JobId id : idle) {
    const sim::JobState st = simulator.state(id);
    if (st != sim::JobState::Queued && st != sim::JobState::Suspended)
      continue;
    if (isClaimant(id)) continue;
    const double priority = simulator.xfactor(id);
    const bool reentry =
        st == sim::JobState::Suspended && !config_.migratableJobs;
    const std::uint32_t width = simulator.job(id).procs;

    if (reentry) {
      // Reclaim the exact saved set: every occupant must be an eligible
      // victim and no part of the set may still be draining.
      const sim::ProcSet needed = simulator.exec(id).procs;
      if (needed.intersects(claimedSet(simulator))) continue;
      bool blocked = false;
      for (const JobId r : simulator.suspendedJobs())
        if (simulator.state(r) == sim::JobState::Suspending &&
            simulator.exec(r).procs.intersects(needed))
          blocked = true;
      if (blocked) continue;
      std::vector<JobId> occupants;
      for (const JobId r : simulator.runningJobs())
        if (simulator.exec(r).procs.intersects(needed)) occupants.push_back(r);
      std::sort(occupants.begin(), occupants.end());
      sim::ProcSet covered = needed & simulator.freeSet();
      for (const JobId r : occupants) {
        if (!victimEligible(simulator, r, priority, width, /*reentry=*/true)) {
          blocked = true;
          break;
        }
        covered |= simulator.exec(r).procs & needed;
      }
      if (blocked || !(needed - covered).empty() || occupants.empty())
        continue;
      bool anyDraining = false;
      for (const JobId r : occupants) {
        suspend(simulator, r);
        anyDraining |= simulator.state(r) == sim::JobState::Suspending;
      }
      if (anyDraining)
        claims_.push_back({id, /*exact=*/true});
      else
        simulator.resumeJob(id);
      continue;
    }

    // Fresh preemptor: collect the lowest-priority eligible victims until
    // usable free processors plus their widths cover the request.
    sim::ProcSet offLimits = claimedSet(simulator);
    if (config_.owedProcs == sched::OwedProcsPolicy::Lease)
      offLimits |= suspendedSets(simulator);
    const std::uint32_t countFence = claimedCount(simulator);
    const std::uint32_t usableFree = (simulator.freeSet() - offLimits).count();
    const std::uint32_t freeNow =
        usableFree >= countFence ? usableFree - countFence : 0;
    if (freeNow >= width) continue;  // dispatch() starts it
    std::vector<JobId> victims;
    std::uint32_t gain = 0;
    for (const JobId r : runningAsc) {
      if (freeNow + gain >= width) break;
      if (!victimEligible(simulator, r, priority, width, /*reentry=*/false))
        continue;
      victims.push_back(r);
      gain += simulator.job(r).procs;
    }
    if (freeNow + gain < width) continue;

    // Suspend the widest victims first so the fewest jobs are hit.
    std::sort(victims.begin(), victims.end(),
              [&simulator](JobId a, JobId b) {
                if (simulator.job(a).procs != simulator.job(b).procs)
                  return simulator.job(a).procs > simulator.job(b).procs;
                return a < b;
              });
    std::uint32_t freed = 0;
    bool anyDraining = false;
    sim::ProcSet victimProcs;
    for (const JobId r : victims) {
      if (freeNow + freed >= width) break;
      victimProcs |= simulator.exec(r).procs;
      suspend(simulator, r);
      freed += simulator.job(r).procs;
      anyDraining |= simulator.state(r) == sim::JobState::Suspending;
    }
    if (anyDraining) {
      claims_.push_back({id, /*exact=*/false});
    } else if (simulator.state(id) == sim::JobState::Suspended) {
      simulator.resumeJobMigrating(id, claimedSet(simulator));
    } else {
      // The victims' processors first; those owed to other suspended jobs
      // only for the shortfall (never, under Lease).
      const sim::ProcSet owedOthers = suspendedSets(simulator) - victimProcs;
      if (config_.owedProcs == sched::OwedProcsPolicy::Lease)
        simulator.startJobAvoiding(id, claimedSet(simulator) | owedOthers);
      else
        simulator.startJobPreferring(id, owedOthers, claimedSet(simulator));
    }
  }
}

}  // namespace sps::check
