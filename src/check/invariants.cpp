#include "check/invariants.hpp"

#include <utility>

#include "check/reference/conservative_reference.hpp"
#include "check/reference/depth_reference.hpp"
#include "obs/counters.hpp"
#include "sched/conservative.hpp"
#include "sched/core/priority_index.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sched/depth_backfill.hpp"
#include "sched/easy.hpp"
#include "sched/immediate_service.hpp"
#include "sched/selective_suspension.hpp"
#include "util/check.hpp"

namespace sps::check {

namespace {

using sim::JobState;

/// The simulator's lifecycle graph. Everything else is a corrupt stream.
bool legalEdge(JobState from, JobState to) {
  switch (from) {
    // Cancellation (streaming ingest) may withdraw a job at any point where
    // it holds no processors: before arrival, queued, or fully drained.
    case JobState::NotArrived:
      return to == JobState::Queued || to == JobState::Cancelled;
    case JobState::Queued:
      return to == JobState::Running || to == JobState::Cancelled;
    case JobState::Running:
      return to == JobState::Suspending || to == JobState::Suspended ||
             to == JobState::Finished;
    case JobState::Suspending: return to == JobState::Suspended;
    case JobState::Suspended:
      return to == JobState::Running || to == JobState::Cancelled;
    case JobState::Finished:
    case JobState::Cancelled:
      return false;
  }
  return false;
}

}  // namespace

// --- TransitionAudit -------------------------------------------------------

void TransitionAudit::onTransition(JobId id, JobState from, JobState to,
                                   Time now) {
  Tally& t = jobs_[id];
  SPS_CHECK_MSG(legalEdge(from, to),
                "illegal transition for job " << id << " at t=" << now << ": "
                                              << sim::jobStateName(from)
                                              << " -> "
                                              << sim::jobStateName(to));
  SPS_CHECK_MSG(t.last == from, "job " << id << " at t=" << now
                                       << " claims to leave "
                                       << sim::jobStateName(from)
                                       << " but was last seen in "
                                       << sim::jobStateName(t.last));
  t.last = to;
  if (to == JobState::Queued) ++t.arrivals;
  if (from == JobState::Queued && to == JobState::Running) {
    ++t.starts;
    ++starts_;
  }
  if (from == JobState::Suspended && to == JobState::Running) {
    ++t.resumes;
    ++resumes_;
  }
  if (from == JobState::Running &&
      (to == JobState::Suspending || to == JobState::Suspended)) {
    ++t.suspensions;
    ++suspensions_;
  }
  if (to == JobState::Finished) ++t.finishes;
  if (to == JobState::Cancelled) ++t.cancels;
}

void TransitionAudit::finalize(std::size_t expectedJobs) const {
  SPS_CHECK_MSG(jobs_.size() == expectedJobs,
                "conservation: " << jobs_.size() << " jobs observed, trace has "
                                 << expectedJobs);
  for (const auto& [id, t] : jobs_) {
    if (t.last == JobState::Cancelled) {
      // Withdrawn before completing: never finished, at most one arrival
      // and one start, and at most one unmatched suspension (a cancel from
      // Suspended leaves the final preemption unresumed).
      SPS_CHECK_MSG(t.cancels == 1, "conservation: cancelled job "
                                        << id << " cancelled " << t.cancels
                                        << " times");
      SPS_CHECK_MSG(t.finishes == 0, "conservation: cancelled job "
                                         << id << " also finished");
      SPS_CHECK_MSG(t.arrivals <= 1, "conservation: job " << id << " arrived "
                                                          << t.arrivals
                                                          << " times");
      SPS_CHECK_MSG(t.starts <= 1, "conservation: job " << id << " started "
                                                        << t.starts
                                                        << " times");
      SPS_CHECK_MSG(t.suspensions == t.resumes ||
                        t.suspensions == t.resumes + 1,
                    "conservation: cancelled job "
                        << id << " suspended " << t.suspensions
                        << " times but resumed " << t.resumes);
      continue;
    }
    SPS_CHECK_MSG(t.last == JobState::Finished,
                  "conservation: job " << id << " ended in "
                                       << sim::jobStateName(t.last));
    SPS_CHECK_MSG(t.arrivals == 1, "conservation: job " << id << " arrived "
                                                        << t.arrivals
                                                        << " times");
    SPS_CHECK_MSG(t.starts == 1, "conservation: job " << id << " started "
                                                      << t.starts << " times");
    SPS_CHECK_MSG(t.finishes == 1, "conservation: job "
                                       << id << " finished " << t.finishes
                                       << " times");
    SPS_CHECK_MSG(t.suspensions == t.resumes,
                  "conservation: job " << id << " suspended " << t.suspensions
                                       << " times but resumed " << t.resumes);
  }
}

const TransitionAudit::Tally& TransitionAudit::tally(JobId id) {
  return jobs_[id];
}

// --- CapacityAudit ---------------------------------------------------------

CapacityAudit::CapacityAudit(std::uint32_t totalProcs)
    : total_(totalProcs), all_(sim::ProcSet::firstN(totalProcs)) {}

void CapacityAudit::hold(JobId id, const sim::ProcSet& procs, Time now) {
  SPS_CHECK_MSG(!procs.empty(),
                "capacity: job " << id << " starts with no processors at t="
                                 << now);
  SPS_CHECK_MSG(procs.isSubsetOf(all_),
                "capacity: job " << id << " allocated outside the machine at t="
                                 << now);
  SPS_CHECK_MSG(byJob_.find(id) == byJob_.end(),
                "capacity: job " << id << " starts while already holding "
                                 << "processors at t=" << now);
  SPS_CHECK_MSG(!procs.intersects(held_),
                "capacity: oversubscription — job "
                    << id << " allocated processors already held at t=" << now);
  held_ |= procs;
  byJob_.emplace(id, procs);
}

void CapacityAudit::release(JobId id, Time now) {
  const auto it = byJob_.find(id);
  SPS_CHECK_MSG(it != byJob_.end(), "capacity: job "
                                        << id
                                        << " releases processors it never "
                                        << "held at t=" << now);
  held_ -= it->second;
  byJob_.erase(it);
}

void CapacityAudit::verify(const sim::ProcSet& freeSet, Time now) const {
  SPS_CHECK_MSG(!held_.intersects(freeSet),
                "capacity: processors both held and free at t=" << now);
  SPS_CHECK_MSG((held_ | freeSet) == all_,
                "capacity: held+free sets do not cover the machine at t="
                    << now << " (held " << held_.count() << " free "
                    << freeSet.count() << " of " << total_ << ")");
}

// --- GuaranteeAudit --------------------------------------------------------

void GuaranteeAudit::observe(JobId id, Time guarantee, Time now) {
  const auto it = last_.find(id);
  if (it == last_.end()) {
    if (guarantee != kNoTime) last_.emplace(id, guarantee);
    return;
  }
  SPS_CHECK_MSG(guarantee != kNoTime,
                "guarantee: queued job " << id
                                         << " lost its start-time guarantee ("
                                         << it->second << ") at t=" << now);
  SPS_CHECK_MSG(guarantee <= it->second,
                "guarantee: job " << id << " regressed from " << it->second
                                  << " to " << guarantee << " at t=" << now);
  it->second = guarantee;
}

void GuaranteeAudit::forget(JobId id) { last_.erase(id); }

// --- TSS bound -------------------------------------------------------------

void checkTssBound(JobId id, double priority, double limit, Time now) {
  SPS_CHECK_MSG(priority < limit,
                "tssBound: job " << id << " suspended at t=" << now
                                 << " with priority " << priority
                                 << " >= protection limit " << limit);
}

// --- InvariantChecker ------------------------------------------------------

void InvariantChecker::arm(sim::Simulator& simulator,
                           const sim::SchedulingPolicy& policy) {
  SPS_CHECK_MSG(!armed_, "InvariantChecker::arm called twice");
  armed_ = true;

  // Probe discovery by policy type. The reservation-based policies expose
  // their kernel ledger and guarantee oracle (their references, which keep
  // no ledger, the guarantee oracle alone); SS exposes its protection
  // limit, SS and IS their priority index. Policies outside these families
  // still get the policy-agnostic checkers (capacity / conservation).
  if (const auto* c = dynamic_cast<const sched::ConservativeBackfill*>(
          &policy)) {
    ledger_ = &c->ledger();
    if (!guaranteeProbe_)
      guaranteeProbe_ = [c](JobId id) { return c->guaranteeOf(id); };
  } else if (const auto* d =
                 dynamic_cast<const sched::DepthBackfill*>(&policy)) {
    ledger_ = &d->ledger();
    if (!guaranteeProbe_)
      guaranteeProbe_ = [d](JobId id) { return d->guaranteeOf(id); };
  } else if (const auto* rc =
                 dynamic_cast<const ReferenceConservative*>(&policy)) {
    if (!guaranteeProbe_)
      guaranteeProbe_ = [rc](JobId id) { return rc->guaranteeOf(id); };
  } else if (const auto* rd =
                 dynamic_cast<const ReferenceDepthBackfill*>(&policy)) {
    if (!guaranteeProbe_)
      guaranteeProbe_ = [rd](JobId id) { return rd->guaranteeOf(id); };
  } else if (const auto* e = dynamic_cast<const sched::EasyBackfill*>(
                 &policy)) {
    ledger_ = &e->ledger();
  } else if (const auto* ss = dynamic_cast<const sched::SelectiveSuspension*>(
                 &policy)) {
    index_ = &ss->idleIndex();
    if (!tssProbe_)
      tssProbe_ = [ss](const sim::Simulator& s, JobId id) {
        return ss->victimProtectionLimit(s, id);
      };
  } else if (const auto* is =
                 dynamic_cast<const sched::ImmediateService*>(&policy)) {
    index_ = &is->waitingIndex();
  }

  if (config_.capacity)
    capacity_.emplace(simulator.machine().totalProcs());

  if (config_.capacity || config_.conservation || config_.tssBound ||
      config_.guarantees) {
    simulator.observers().onStateChange(
        [this](const sim::Simulator& s, JobId id, sim::JobState from,
               sim::JobState to) { onStateChange(s, id, from, to); });
  }
  if (config_.guarantees || config_.ledger) {
    simulator.observers().onEventDispatched(
        [this](const sim::Simulator& s, const sim::Event&) { onEvent(s); });
  }
}

void InvariantChecker::onStateChange(const sim::Simulator& s, JobId id,
                                     sim::JobState from, sim::JobState to) {
  const Time now = s.now();
  s.counters().inc(obs::Counter::CheckTransitionAudits);
  if (config_.conservation) transitions_.onTransition(id, from, to, now);
  if (config_.guarantees &&
      (to == JobState::Running || to == JobState::Cancelled))
    guarantees_.forget(id);
  if (config_.tssBound && tssProbe_ && from == JobState::Running &&
      (to == JobState::Suspending || to == JobState::Suspended)) {
    if (const std::optional<double> limit = tssProbe_(s, id))
      checkTssBound(id, s.xfactor(id), *limit, now);
  }
  if (capacity_) {
    if (to == JobState::Running) {
      capacity_->hold(id, s.exec(id).procs, now);
    } else if ((from == JobState::Running &&
                (to == JobState::Suspended || to == JobState::Finished)) ||
               (from == JobState::Suspending && to == JobState::Suspended)) {
      capacity_->release(id, now);
    }
    // Running -> Suspending keeps the processors for the write-out drain.
    capacity_->verify(s.freeSet(), now);
  }
}

void InvariantChecker::onEvent(const sim::Simulator& s) {
  ++dispatches_;
  const std::uint32_t stride = config_.auditStride == 0 ? 1
                                                        : config_.auditStride;
  if (dispatches_ % stride != 0) return;
  ++epochAudits_;
  s.counters().inc(obs::Counter::CheckEpochAudits);
  if (config_.guarantees && guaranteeProbe_) {
    for (const JobId id : s.queuedJobs())
      guarantees_.observe(id, guaranteeProbe_(id), s.now());
  }
  if (config_.ledger) auditKernel(s);
}

void InvariantChecker::auditKernel(const sim::Simulator& s) const {
  if (ledger_ != nullptr) ledger_->audit(s);
  if (index_ != nullptr) index_->audit(s);
}

void InvariantChecker::finalize(const sim::Simulator& simulator) {
  SPS_CHECK_MSG(armed_, "InvariantChecker::finalize before arm");
  if (config_.conservation) {
    const std::size_t jobs = simulator.trace().jobs.size();
    transitions_.finalize(jobs);
    // Per-job balance against the simulator's own execution records, and
    // totals against the always-on obs counters (the "suspension counters
    // from sps::obs balance" half of the conservation property).
    for (JobId id = 0; id < jobs; ++id) {
      const sim::JobExec& x = simulator.exec(id);
      const TransitionAudit::Tally& t = transitions_.tally(id);
      SPS_CHECK_MSG(simulator.state(id) == JobState::Finished ||
                        simulator.state(id) == JobState::Cancelled,
                    "conservation: exec state of job "
                        << id << " is " << sim::jobStateName(simulator.state(id))
                        << " after the run");
      SPS_CHECK_MSG(x.suspendCount == t.suspensions,
                    "conservation: job " << id << " exec.suspendCount "
                                         << x.suspendCount << " != observed "
                                         << t.suspensions);
    }
    const obs::Counters& c = simulator.counters();
    SPS_CHECK_MSG(c.value(obs::Counter::SimStarts) == transitions_.totalStarts(),
                  "conservation: sim.starts counter "
                      << c.value(obs::Counter::SimStarts) << " != observed "
                      << transitions_.totalStarts());
    SPS_CHECK_MSG(
        c.value(obs::Counter::SimResumes) == transitions_.totalResumes(),
        "conservation: sim.resumes counter "
            << c.value(obs::Counter::SimResumes) << " != observed "
            << transitions_.totalResumes());
    SPS_CHECK_MSG(
        c.value(obs::Counter::SimSuspensions) ==
            transitions_.totalSuspensions(),
        "conservation: sim.suspensions counter "
            << c.value(obs::Counter::SimSuspensions) << " != observed "
            << transitions_.totalSuspensions());
    SPS_CHECK_MSG(simulator.totalSuspensions() ==
                      transitions_.totalSuspensions(),
                  "conservation: totalSuspensions() "
                      << simulator.totalSuspensions() << " != observed "
                      << transitions_.totalSuspensions());
    std::uint64_t byCategory = 0;
    for (const std::uint64_t v : c.suspensionsByCategory()) byCategory += v;
    SPS_CHECK_MSG(byCategory == transitions_.totalSuspensions(),
                  "conservation: per-category suspension counters sum to "
                      << byCategory << ", observed "
                      << transitions_.totalSuspensions());
  }
  if (capacity_) {
    SPS_CHECK_MSG(capacity_->heldCount() == 0,
                  "capacity: " << capacity_->heldCount()
                               << " processors still held after the run");
    capacity_->verify(simulator.freeSet(), simulator.now());
  }
  if (config_.ledger) auditKernel(simulator);
}

}  // namespace sps::check
