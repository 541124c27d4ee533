#include "sched/depth_backfill.hpp"

#include <algorithm>
#include <sstream>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

DepthBackfill::DepthBackfill(DepthConfig config) : config_(config) {
  SPS_CHECK_MSG(config_.depth >= 1, "reservation depth must be >= 1");
}

std::string DepthBackfill::name() const {
  std::ostringstream os;
  if (config_.depth == kUnlimitedDepth) os << "Depth-BF(inf)";
  else os << "Depth-BF(" << config_.depth << ")";
  return os.str();
}

Time DepthBackfill::guaranteeOf(JobId job) const {
  // guarantees_ parallels the reserved prefix of queue_, which is in
  // submission order; trace ids are dense in submission order, so the
  // vector is sorted by id and binary search applies. The sps::check
  // guarantee oracle polls this per queued job per sampled event, so the
  // old linear scan would make checked depth-inf runs O(queue^2).
  const auto it = std::lower_bound(
      guarantees_.begin(), guarantees_.end(), job,
      [](const std::pair<JobId, Time>& entry, JobId id) {
        return entry.first < id;
      });
  if (it == guarantees_.end() || it->first != job) return kNoTime;
  return it->second;
}

void DepthBackfill::onSimulationStart(sim::Simulator& simulator) {
  ledger_.attach(simulator);
  queue_.clear();
  guarantees_.clear();
}

void DepthBackfill::onJobArrival(sim::Simulator& simulator, JobId job) {
  // The new arrival has the highest id, so push_back keeps queue_ sorted.
  queue_.push_back(job);
  // An arrival never changes the availability function, so existing
  // guarantees need no re-anchoring.
  simulator.counters().inc(obs::Counter::ArrivalFastPaths);
  incrementalPass(simulator);
}

void DepthBackfill::onJobCompletion(sim::Simulator& simulator, JobId job) {
  // Same fast-path rule as conservative compression: an on-time completion
  // leaves the function unchanged, making every pass-1 re-anchor the
  // identity (see conservative.cpp for the argument). Early completions
  // free capacity and take the full rebuild.
  if (kernel::completionPreservesProfile(simulator, job)) {
    simulator.counters().inc(obs::Counter::CompletionFastPaths);
    incrementalPass(simulator);
  } else {
    rebuild(simulator);
  }
}

void DepthBackfill::incrementalPass(sim::Simulator& simulator) {
  ledger_.refresh(simulator);
  const Time now = simulator.now();
  std::vector<JobId> pending;
  pending.swap(queue_);
  // Pass-1 membership is positional, exactly as in rebuild(): the first
  // min(depth, pending) jobs, started ones included. Guaranteed jobs are
  // always the lowest-id queued jobs (new arrivals take higher ids, and
  // unreserved tail jobs outrank every pass-1 job), so they appear as a
  // prefix of pending, in guarantee-list order.
  const std::size_t passOne =
      std::min<std::size_t>(config_.depth, pending.size());
  std::vector<std::pair<JobId, Time>> oldGuarantees;
  oldGuarantees.swap(guarantees_);
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const JobId id = pending[i];
    const auto& j = simulator.job(id);
    if (i < passOne) {
      if (consumed < oldGuarantees.size() &&
          oldGuarantees[consumed].first == id) {
        // Existing guarantee: a fixed point of re-anchoring. Start it when
        // due and physically possible; otherwise leave its ledger entry
        // untouched (a pending same-timestamp completion retries later in
        // the cascade).
        const Time start = oldGuarantees[consumed++].second;
        if (start == now && j.procs <= simulator.freeCount()) {
          ledger_.removeReservation(id);
          simulator.startJob(id);
        } else {
          queue_.push_back(id);
          guarantees_.emplace_back(id, start);
        }
      } else {
        // Promotion into a pass-1 slot (freed by starts, or the arrival
        // itself): anchor exactly as rebuild() would.
        const auto anchor = engine_.anchorOf(simulator, id);
        if (anchor.startNow) {
          simulator.startJob(id);
        } else {
          queue_.push_back(id);
          guarantees_.emplace_back(id, anchor.start);
          ledger_.addReservation(id, anchor.start, j.estimate, j.procs);
        }
      }
    } else {
      // Pass 2: unreserved jobs backfill iff their earliest anchor is now.
      const auto anchor = engine_.anchorOf(simulator, id);
      if (anchor.startNow) {
        simulator.counters().inc(obs::Counter::BackfillStarts);
        simulator.startJob(id);
      } else {
        queue_.push_back(id);
      }
    }
  }
  SPS_CHECK_MSG(consumed == oldGuarantees.size(),
                "guarantee list out of sync with the queue prefix");
}

void DepthBackfill::rebuild(sim::Simulator& simulator) {
  simulator.counters().inc(obs::Counter::FullPasses);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("policy", "depth.rebuild", simulator.now()));
  // Drop every guarantee from the ledger before re-anchoring: job k must be
  // anchored against running jobs + re-anchored jobs 0..k-1 only, never
  // against later jobs' old slots. Zombie handling is conservative's: a job
  // whose estimated end is exactly now() counts as done; its completion
  // event fires in this timestamp batch and triggers another rebuild.
  ledger_.refresh(simulator);
  for (const auto& [id, start] : guarantees_) {
    (void)start;
    ledger_.removeReservation(id);
  }

  std::vector<std::pair<JobId, Time>> oldGuarantees;
  oldGuarantees.swap(guarantees_);

  // Pass-1 membership is positional (the first `depth` queued jobs), but
  // the re-anchoring ORDER is increasing old guarantee, exactly as in
  // conservative compression: a job re-anchored earlier only moves left,
  // into times strictly before its old start and therefore before every
  // later old start, so each job's old slot stays feasible and guarantees
  // never regress. Queue order would break that — an earlier-queued job's
  // improved anchor can steal the hole a later-queued job was anchored in.
  // Guaranteed jobs are always the lowest-id prefix of the sorted queue,
  // so a lockstep scan recovers each old guarantee; never-guaranteed slots
  // (promotions) anchor last, in queue order.
  std::vector<JobId> pending;
  pending.swap(queue_);
  const std::size_t passOne =
      std::min<std::size_t>(config_.depth, pending.size());
  std::vector<std::pair<Time, JobId>> passOneOrder;
  passOneOrder.reserve(passOne);
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < passOne; ++i) {
    Time previous = kTimeMax;  // never guaranteed: anything is an improvement
    if (consumed < oldGuarantees.size() &&
        oldGuarantees[consumed].first == pending[i]) {
      previous = oldGuarantees[consumed++].second;
    }
    passOneOrder.emplace_back(previous, pending[i]);
  }
  SPS_CHECK_MSG(consumed == oldGuarantees.size(),
                "guarantee list out of sync with the queue prefix");
  std::stable_sort(passOneOrder.begin(), passOneOrder.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  for (const auto& [previous, id] : passOneOrder) {
    const auto& j = simulator.job(id);
    const auto anchor = engine_.anchorOf(simulator, id);
    SPS_CHECK_MSG(anchor.start <= previous,
                  "depth-backfill guarantee regressed for job " << id);
    if (anchor.startNow) {
      simulator.startJob(id);
    } else {
      queue_.push_back(id);
      guarantees_.emplace_back(id, anchor.start);
      ledger_.addReservation(id, anchor.start, j.estimate, j.procs);
    }
  }
  // Restore guarantees_ to queue-prefix (id) order — the lockstep scans
  // above and in incrementalPass() depend on it.
  std::sort(guarantees_.begin(), guarantees_.end());

  std::vector<JobId> backfillCandidates(pending.begin() +
                                            static_cast<std::ptrdiff_t>(passOne),
                                        pending.end());

  // Pass 2: unreserved jobs backfill iff they fit *now* without delaying
  // any reservation — i.e. their earliest anchor against the profile
  // (running + all reservations + earlier backfills) is the present.
  for (JobId id : backfillCandidates) {
    const auto anchor = engine_.anchorOf(simulator, id);
    if (anchor.startNow) {
      simulator.counters().inc(obs::Counter::BackfillStarts);
      simulator.startJob(id);
    } else {
      queue_.push_back(id);
    }
  }

  // queue_ now holds reserved-but-waiting jobs first (in order), then the
  // unreserved tail — submission order within each group is preserved, and
  // reserved jobs all precede unreserved ones in the original order too.
  std::sort(queue_.begin(), queue_.end());
}

void DepthBackfill::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(queue_.empty(), "depth-backfill queue not drained");
}

}  // namespace sps::sched
