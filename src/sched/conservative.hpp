// Conservative backfilling (Section II-A.1 of the paper).
//
// Every job receives a start-time guarantee (its "anchor point") when it
// enters the system: the earliest time at which the availability profile —
// running jobs' estimated remainders plus all earlier reservations — can
// hold the job for its full estimated duration. A job may backfill only if
// doing so delays no previously-queued job, which the anchor construction
// guarantees by building the profile from every existing reservation.
//
// When a running job terminates earlier than its estimate, the schedule is
// compressed: reservations are released one by one in order of increasing
// guaranteed start and re-anchored against the rebuilt profile. A job's new
// anchor can never be later than its old guarantee (the old slot is still
// feasible), so guarantees only improve — the paper's no-starvation argument.
//
// The profile lives in a sched/core ReservationLedger; this file holds only
// the decision rule (guarantee ordering + the compression loop, which an
// on-time completion reduces to starting the due reservations). The
// compress-on-every-completion shape over a rebuilt profile is kept as
// the differential reference in sps::check (ReferenceConservative).
#pragma once

#include <unordered_map>
#include <vector>

#include "sched/core/backfill_engine.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sim/policy.hpp"

namespace sps::sched {

class ConservativeBackfill final : public sim::SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Conservative"; }

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Current start-time guarantee for a queued job (tests/diagnostics).
  /// O(1): backed by a per-job map kept alongside the guarantee-ordered
  /// vector.
  [[nodiscard]] Time guaranteeOf(JobId job) const;

  /// The kernel ledger backing this policy, for the sps::check ledger
  /// audit. Read-only.
  [[nodiscard]] const kernel::ReservationLedger& ledger() const {
    return ledger_;
  }

 private:
  struct Reservation {
    JobId job;
    Time start;
  };

  /// Re-anchor every reservation (in guarantee order) against a fresh
  /// profile, starting any whose anchor is now. Guarantees must not regress.
  void compress(sim::Simulator& simulator);

  /// Fast-path compression for on-time completions: the availability
  /// function is unchanged, so every re-anchor would
  /// return the reservation's current start. Only the start == now prefix
  /// can act — start those that physically fit, keep the rest untouched.
  void startDueReservations(sim::Simulator& simulator);

  void recordReservation(sim::Simulator& simulator, JobId job, Time start);

  kernel::ReservationLedger ledger_;
  kernel::BackfillEngine engine_{ledger_};
  std::vector<Reservation> reservations_;  ///< sorted by (start, FCFS rank)
  /// JobId -> guaranteed start, mirroring reservations_.
  std::unordered_map<JobId, Time> guaranteeIndex_;
};

}  // namespace sps::sched
