#include "sched/easy.hpp"

#include <algorithm>
#include <tuple>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

void EasyBackfill::onSimulationStart(sim::Simulator& simulator) {
  ledger_.attach(simulator);
  queue_.clear();
}

std::size_t EasyBackfill::enqueue(const sim::Simulator& simulator, JobId job) {
  const Entry entry{job, simulator.job(job).procs};
  auto pos = queue_.end();
  if (config_.order == QueueOrder::ShortestFirst)  // (estimate, submit, id)
    pos = std::upper_bound(
        queue_.begin(), queue_.end(), entry,
        [&simulator](const Entry& a, const Entry& b) {
          const auto& ja = simulator.job(a.id);
          const auto& jb = simulator.job(b.id);
          return std::tie(ja.estimate, ja.submit, a.id) <
                 std::tie(jb.estimate, jb.submit, b.id);
        });
  const auto at = static_cast<std::size_t>(pos - queue_.begin());
  queue_.insert(pos, entry);
  return at;
}

void EasyBackfill::onJobArrival(sim::Simulator& simulator, JobId job) {
  const std::size_t at = enqueue(simulator, job);
  // Arrival fast path: an arrival changes neither the availability function
  // nor free capacity, so when the pivot is unchanged the previous pass's
  // verdicts stand — the pivot still cannot start, and every older
  // candidate still fails its backfill test (its estimated finish only
  // moved later against the same absolute shadow; a believed completion
  // strictly between two events is impossible). Only the newcomer needs a
  // test, and its start can only shrink capacity/extra (see the header).
  // A zombie (running job whose believed end is exactly now) invalidates
  // the argument — the shadow overlay can push the pivot's anchor later and
  // un-fail older candidates — so that case takes the full pass, as does a
  // newcomer that becomes the pivot (ShortestFirst insert at the head).
  if (at > 0) {
    ledger_.refresh(simulator);
    if (ledger_.zombieProcsAt(simulator.now()) == 0) {
      simulator.counters().inc(obs::Counter::ArrivalFastPaths);
      if (queue_[at].procs <= simulator.freeCount()) {
        auto shadow = engine_.shadowOf(simulator, queue_.front().id);
        if (engine_.canBackfill(simulator, job, shadow)) {
          startBackfill(simulator, queue_[at], shadow);
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
          return;
        }
      }
      simulator.counters().inc(obs::Counter::BackfillRejects);
      return;
    }
  }
  schedulePass(simulator);
}

void EasyBackfill::onJobCompletion(sim::Simulator& simulator, JobId /*job*/) {
  schedulePass(simulator);
}

void EasyBackfill::onJobCancelled(sim::Simulator& simulator, JobId job) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [job](const Entry& e) { return e.id == job; });
  SPS_CHECK_MSG(it != queue_.end(), "cancelled job " << job << " not queued");
  queue_.erase(it);
  // A cancelled pivot releases its shadow fence; rescan for newly-feasible
  // starts and backfills.
  schedulePass(simulator);
}

void EasyBackfill::startBackfill(sim::Simulator& simulator, const Entry& entry,
                                 kernel::BackfillEngine::Shadow& shadow) {
  if (simulator.now() + simulator.job(entry.id).estimate > shadow.time)
    shadow.extra -= entry.procs;  // canBackfill admitted it by extra
  simulator.counters().inc(obs::Counter::BackfillStarts);
  simulator.startJob(entry.id);
  ++backfills_;
}

void EasyBackfill::schedulePass(sim::Simulator& simulator) {
  simulator.counters().inc(obs::Counter::FullPasses);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("policy", "easy.pass", simulator.now()));
  // Phase 1: start jobs from the head while they fit.
  auto head = queue_.begin();
  for (; head != queue_.end() && head->procs <= simulator.freeCount(); ++head)
    simulator.startJob(head->id);
  queue_.erase(queue_.begin(), head);
  if (queue_.empty()) return;

  // Phase 2: the head does not fit. One scan under one shadow (see the
  // header for why a start never revives a declined candidate). Declined
  // entries stay in place until the first start, then move down over the
  // started ones; once no processor is free, no candidate can fit.
  ledger_.refresh(simulator);
  auto shadow = engine_.shadowOf(simulator, queue_.front().id);
  auto kept = queue_.begin() + 1;
  auto next = kept;
  for (; next != queue_.end() && simulator.freeCount() > 0; ++next) {
    if (next->procs <= simulator.freeCount() &&
        engine_.canBackfill(simulator, next->id, shadow))
      startBackfill(simulator, *next, shadow);
    else
      *kept++ = *next;
  }
  queue_.erase(kept, next);
  // Every candidate still queued behind the head was declined by this pass.
  simulator.counters().add(obs::Counter::BackfillRejects, queue_.size() - 1);
}

void EasyBackfill::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(queue_.empty(), "EASY queue not drained at end of run");
}

}  // namespace sps::sched
