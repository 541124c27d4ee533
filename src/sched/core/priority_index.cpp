#include "sched/core/priority_index.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::sched::kernel {

namespace {

/// Sort `jobs` under a strict total order. When `seeded`, the vector is the
/// previous order with membership churn applied — nearly sorted,
/// because priorities drift continuously between events and pairwise order
/// flips are rare — so an adaptive insertion sort finishes in
/// O(n + inversions). The comparator breaks every tie (by id), the sorted
/// permutation is unique, and therefore the result is bit-identical to a
/// from-scratch std::sort. A shift budget bounds the pathological case
/// (e.g. a long event gap crossing many priorities) by falling back to
/// std::sort.
template <class Cmp>
void adaptiveSort(std::vector<JobId>& jobs, Cmp cmp, bool seeded) {
  if (!seeded) {
    std::sort(jobs.begin(), jobs.end(), cmp);
    return;
  }
  std::size_t budget = jobs.size() * 32 + 64;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const JobId v = jobs[i];
    std::size_t j = i;
    while (j > 0 && cmp(v, jobs[j - 1])) {
      jobs[j] = jobs[j - 1];
      --j;
      if (--budget == 0) {
        // The in-flight element still lives in `v` and the shift left its
        // hole at jobs[j] — restore it first, or the fallback sorts an
        // array with one element duplicated and one lost.
        jobs[j] = v;
        std::sort(jobs.begin(), jobs.end(), cmp);
        return;
      }
    }
    jobs[j] = v;
  }
}

/// Members of the idle set: queued, or suspended and fully drained.
bool isIdle(sim::JobState st) {
  return st == sim::JobState::Queued || st == sim::JobState::Suspended;
}

}  // namespace

void IdleWalk::iterator::settle() {
  const std::vector<JobId>& order = *walk_->order_;
  const auto mask = static_cast<std::uint8_t>(walk_->filter_);
  while (pos_ < order.size()) {
    const sim::JobState st = walk_->sim_->state(order[pos_]);
    const std::uint8_t bit = st == sim::JobState::Queued      ? 1
                             : st == sim::JobState::Suspended ? 2
                                                              : 0;
    if ((bit & mask) != 0) return;
    ++pos_;
  }
}

IdleWalk PriorityIndex::walk(const sim::Simulator& simulator,
                             IdleFilter filter) {
  SPS_CHECK_MSG(attached_ == &simulator,
                "priority index walked for a run it is not attached to");
  ensureMaintained(simulator);
  return {idle_, simulator, filter};
}

void PriorityIndex::attach(sim::Simulator& simulator) {
  valid_ = false;
  pending_.clear();
  orderValidUntil_ = kNoTime;
  inPending_.assign(simulator.trace().jobs.size(), 0);
  const bool firstAttach = attached_ == nullptr;
  attached_ = &simulator;
  if (firstAttach) {
    // One registration per index lifetime: on re-attach the observer is
    // already in place (stale simulators are filtered by `attached_`).
    simulator.observers().onStateChange(
        [this](const sim::Simulator& s, JobId id, sim::JobState from,
               sim::JobState to) {
          if (&s != attached_) return;
          const bool was = isIdle(from);
          const bool is = isIdle(to);
          // Invalid cache: the next refresh gathers membership from
          // scratch, so nothing to track. Note this never mutates idle_ —
          // transitions fire mid-walk (the walker's own starts and
          // resumes), and IdleWalk borrows idle_ by reference.
          if (was == is || !valid_) return;
          if (is) {
            pending_.push_back(id);
          } else {
            // Leaving the idle set: cancel an unplaced arrival, or leave a
            // placed entry behind as a tombstone the walks' live state
            // filter already hides (compacted before the next placement).
            const auto it = std::find(pending_.begin(), pending_.end(), id);
            if (it != pending_.end()) pending_.erase(it);
          }
        });
  }
}

void PriorityIndex::ensureMaintained(const sim::Simulator& simulator) {
  // Streamed submits grow the job table after attach; the priority scratch
  // already resizes at point of use, this one is indexed by every pending
  // id below.
  if (inPending_.size() < simulator.trace().jobs.size())
    inPending_.resize(simulator.trace().jobs.size(), 0);
  const bool hit = valid_ && simulator.now() < orderValidUntil_;
  simulator.counters().inc(hit ? obs::Counter::IndexHits
                               : obs::Counter::IndexMisses);
  if (!hit) {
    refresh(simulator);
  } else if (!pending_.empty()) {
    compactAndApply(simulator);
  }
}

void PriorityIndex::refresh(const sim::Simulator& simulator) {
  if (!valid_) {
    // First walk since attach: nothing tracked yet, so gather membership
    // from the simulator's lists and sort from scratch.
    simulator.counters().inc(obs::Counter::IndexFullSorts);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("kernel", "index.resort", simulator.now())
                  .arg("seeded", 0));
    pending_.clear();
    idle_.assign(simulator.queuedJobs().begin(), simulator.queuedJobs().end());
    for (const JobId id : simulator.suspendedJobs())
      if (simulator.state(id) == sim::JobState::Suspended)
        idle_.push_back(id);
    valid_ = true;
    sortCurrent(simulator, /*seeded=*/false);
  } else {
    // Horizon expiry with membership still exact: the observer tracked
    // every idle transition, so drop tombstones (and stale copies of
    // re-entered jobs), append the unplaced arrivals anywhere, and let the
    // seeded sort repair the handful of drifted positions.
    simulator.counters().inc(obs::Counter::IndexSeededSorts);
    dropTombstones(simulator);
    for (const JobId id : pending_)
      if (isIdle(simulator.state(id))) idle_.push_back(id);
    pending_.clear();
    sortCurrent(simulator, /*seeded=*/true);
  }
  orderValidUntil_ = kTimeMax;
  if (order_ != IndexOrder::XFactorDesc) return;  // static order: no drift
  for (std::size_t i = 0; i + 1 < idle_.size(); ++i)
    pairHorizon(simulator, i, priority_[idle_[i]], priority_[idle_[i + 1]]);
}

void PriorityIndex::pairHorizon(const sim::Simulator& simulator,
                                std::size_t i, double xa, double xb) {
  // Idle priorities rise linearly at slope 1/estimate. The lower entry b
  // can only overtake its neighbor a when it rises faster; the crossing of
  // the two lines then bounds how long the cached pairwise order holds.
  // Chained across adjacencies (any global order change passes through an
  // adjacent equality first), the minimum over all pairs ever adjacent
  // bounds the first time a fresh sort could disagree with the cache. The
  // floor-minus-one margin dwarfs the float error of the crossing (well
  // under a second), and sub-second proximity to the true crossing is also
  // where equal-double ties could flip the comparator — the margin keeps
  // every served time clear of both.
  const auto ea = static_cast<double>(simulator.job(idle_[i]).estimate);
  const auto eb = static_cast<double>(simulator.job(idle_[i + 1]).estimate);
  if (eb >= ea) return;
  const double rate = 1.0 / eb - 1.0 / ea;
  const double tc =
      static_cast<double>(simulator.now()) + (xa - xb) / rate;
  const Time h = tc >= static_cast<double>(kTimeMax)
                     ? kTimeMax
                     : static_cast<Time>(tc) - 1;
  orderValidUntil_ = std::min(orderValidUntil_, h);
}

void PriorityIndex::dropTombstones(const sim::Simulator& simulator) {
  // A job that left and re-entered the idle set is both a tombstone and a
  // pending arrival — inPending_ drops the stale copy.
  for (const JobId id : pending_) inPending_[id] = 1;
  std::size_t keep = 0;
  for (const JobId id : idle_)
    if (isIdle(simulator.state(id)) && inPending_[id] == 0)
      idle_[keep++] = id;
  idle_.resize(keep);
  for (const JobId id : pending_) inPending_[id] = 0;
}

void PriorityIndex::compactAndApply(const sim::Simulator& simulator) {
  // Tombstones must go before a binary search can trust the array: a
  // no-longer-idle entry's priority froze when it left, so the live
  // entries around it may have outgrown it without any recorded crossing.
  dropTombstones(simulator);
  for (const JobId id : pending_) {
    if (!isIdle(simulator.state(id)))
      continue;  // guard; the observer cancels unplaced leavers
    const Time submit = simulator.job(id).submit;
    double x = 0.0;
    auto before = [&](JobId m) {
      if (order_ == IndexOrder::SubmitAsc) {
        const Time sm = simulator.job(m).submit;
        if (sm != submit) return sm < submit;
        return m < id;
      }
      // Walk order against *current* priorities — the horizon guarantees
      // the cached order agrees with them, so the sequence is monotone.
      const double xm = simulator.xfactor(m);
      if (xm != x) return xm > x;
      const Time sm = simulator.job(m).submit;
      if (sm != submit) return sm < submit;
      return m < id;
    };
    if (order_ == IndexOrder::XFactorDesc) x = simulator.xfactor(id);
    const auto it =
        std::lower_bound(idle_.begin(), idle_.end(), id,
                         [&](JobId m, JobId) { return before(m); });
    const auto pos = static_cast<std::size_t>(it - idle_.begin());
    idle_.insert(it, id);
    if (order_ != IndexOrder::XFactorDesc) continue;
    if (pos > 0)
      pairHorizon(simulator, pos - 1, simulator.xfactor(idle_[pos - 1]), x);
    if (pos + 1 < idle_.size())
      pairHorizon(simulator, pos, x, simulator.xfactor(idle_[pos + 1]));
  }
  pending_.clear();
}

void PriorityIndex::sortCurrent(const sim::Simulator& simulator,
                                bool seeded) {
  if (order_ == IndexOrder::XFactorDesc) {
    priority_.resize(simulator.trace().jobs.size());
    for (const JobId id : idle_) priority_[id] = simulator.xfactor(id);
    adaptiveSort(
        idle_,
        [this, &simulator](JobId a, JobId b) {
          if (priority_[a] != priority_[b]) return priority_[a] > priority_[b];
          if (simulator.job(a).submit != simulator.job(b).submit)
            return simulator.job(a).submit < simulator.job(b).submit;
          return a < b;
        },
        seeded);
  } else {
    adaptiveSort(
        idle_,
        [&simulator](JobId a, JobId b) {
          if (simulator.job(a).submit != simulator.job(b).submit)
            return simulator.job(a).submit < simulator.job(b).submit;
          return a < b;
        },
        seeded);
  }
}

void PriorityIndex::audit(const sim::Simulator& simulator) const {
  if (!valid_) return;
  SPS_CHECK_MSG(attached_ == &simulator,
                "priority index audit against a simulator it is not "
                "attached to");
  std::vector<JobId> pending(pending_);
  std::sort(pending.begin(), pending.end());
  // Live entries: idle jobs not awaiting placement (a pending job's older
  // entry is the stale copy left when it last left the idle set).
  std::vector<JobId> live;
  for (const JobId id : idle_)
    if (isIdle(simulator.state(id)) &&
        !std::binary_search(pending.begin(), pending.end(), id))
      live.push_back(id);

  std::vector<JobId> tracked(live);
  tracked.insert(tracked.end(), pending.begin(), pending.end());
  std::sort(tracked.begin(), tracked.end());
  std::vector<JobId> actual(simulator.queuedJobs());
  for (const JobId id : simulator.suspendedJobs())
    if (simulator.state(id) == sim::JobState::Suspended) actual.push_back(id);
  std::sort(actual.begin(), actual.end());
  SPS_CHECK_MSG(tracked == actual,
                "priority index audit: tracks "
                    << tracked.size() << " idle jobs (" << pending.size()
                    << " pending) at t=" << simulator.now()
                    << ", the simulator has " << actual.size());

  if (simulator.now() >= orderValidUntil_) return;  // next walk re-sorts
  const auto precedes = [this, &simulator](JobId a, JobId b) {
    if (order_ == IndexOrder::XFactorDesc) {
      const double xa = simulator.xfactor(a);
      const double xb = simulator.xfactor(b);
      if (xa != xb) return xa > xb;
    }
    if (simulator.job(a).submit != simulator.job(b).submit)
      return simulator.job(a).submit < simulator.job(b).submit;
    return a < b;
  };
  for (std::size_t i = 0; i + 1 < live.size(); ++i)
    SPS_CHECK_MSG(precedes(live[i], live[i + 1]),
                  "priority index audit: job "
                      << live[i] << " is served before job " << live[i + 1]
                      << " at t=" << simulator.now()
                      << ", but a fresh sort puts it after");
}

}  // namespace sps::sched::kernel
