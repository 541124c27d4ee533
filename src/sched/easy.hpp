// Aggressive (EASY) backfilling (Section II-A.2 of the paper).
//
// Only the job at the head of the queue holds a reservation: the earliest
// time the required processors are expected to free up given running jobs'
// estimates (the "shadow time"). Any other queued job may start immediately
// if it fits in the currently-free processors AND one of the two conditions
// that protect the head job holds:
//   (1) it is estimated to terminate by the shadow time, or
//   (2) it uses no more processors than will remain free at the shadow time
//       once the head job starts (the "extra" processors).
//
// This is the paper's "No Suspension (NS)" baseline for every evaluation.
// The shadow/extra computation lives in sched/core's BackfillEngine over a
// ReservationLedger; this file keeps only the queue discipline and the
// backfill scan.
//
// One shadow per pass. EASY holds no reservations, so its profile is the
// running jobs' believed remainders, a free-processor function that never
// decreases over time (the zombie overlay lowers only [now, now + 1)).
// Starting a backfilled job lowers it on [now, now + estimate) alone: the
// shadow time stays where it was, and `extra` shrinks by the job's width
// exactly when the job runs past the shadow. Free processors and `extra`
// only shrink, so no candidate the scan already declined can become
// startable, and the scan goes on from the next candidate instead of
// restarting. check::RestartScanEasy keeps the restart-after-every-start
// scan over a from-scratch profile as the differential reference.
#pragma once

#include <vector>

#include "sched/core/backfill_engine.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sim/policy.hpp"

namespace sps::sched {

/// Queue discipline for the backfilling queue.
enum class QueueOrder {
  /// Submission order — the classical EASY scheduler (the paper's NS).
  Fcfs,
  /// Shortest estimated runtime first (SJF-backfill, a common variant in
  /// the backfilling literature; ties broken by submission). Trades
  /// fairness for average slowdown — a useful non-preemptive comparison
  /// point for SS, which achieves short-job service *with* a starvation
  /// guarantee.
  ShortestFirst,
};

struct EasyConfig {
  QueueOrder order = QueueOrder::Fcfs;
};

class EasyBackfill final : public sim::SchedulingPolicy {
 public:
  EasyBackfill() = default;
  explicit EasyBackfill(EasyConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    return config_.order == QueueOrder::Fcfs ? "EASY (NS)" : "SJF-BF";
  }

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  /// Cancellation only ever removes a queue entry — the ledger tracks
  /// running jobs and the head's reservation is recomputed per pass, so
  /// there is no bound future state to repair.
  [[nodiscard]] bool supportsCancel() const override { return true; }
  void onJobCancelled(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Number of backfilled starts (started ahead of an earlier-submitted
  /// queued job), for tests and diagnostics.
  [[nodiscard]] std::uint64_t backfillCount() const { return backfills_; }

  /// The kernel ledger backing this policy, for the sps::check ledger
  /// audit. Read-only.
  [[nodiscard]] const kernel::ReservationLedger& ledger() const {
    return ledger_;
  }

 private:
  /// A queued job with its width, so the scan rejects candidates wider
  /// than the free processors without looking the job up.
  struct Entry {
    JobId id;
    std::uint32_t procs;
  };

  void schedulePass(sim::Simulator& simulator);
  /// Insert `job` in queue order; returns its index.
  std::size_t enqueue(const sim::Simulator& simulator, JobId job);
  /// Start a backfill candidate that passed canBackfill, keeping `shadow`
  /// current: `extra` shrinks when the job runs past the shadow time.
  void startBackfill(sim::Simulator& simulator, const Entry& entry,
                     kernel::BackfillEngine::Shadow& shadow);

  EasyConfig config_;
  kernel::ReservationLedger ledger_;
  kernel::BackfillEngine engine_{ledger_};
  std::vector<Entry> queue_;  ///< FCFS or shortest-first, per config
  std::uint64_t backfills_ = 0;
};

}  // namespace sps::sched
