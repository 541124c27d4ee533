// Reservation-depth backfilling — the spectrum between the paper's two
// backfilling baselines, after the "relaxed"/"selective reservation"
// strategies of the paper's own reference list (Ward et al. [10],
// Srinivasan et al. [16]).
//
// depth = K means the first K queued jobs hold start-time guarantees
// (anchored exactly as in conservative backfilling); every other queued job
// may start only if doing so delays none of those K reservations. K = 1 is
// EASY's guarantee structure on a FCFS queue; K = infinity is conservative
// backfilling up to the order in which equal guarantees are re-anchored
// after an early completion: rebuild() re-anchors ties in id order, while
// ConservativeBackfill::compress keeps the order its reservations already
// had. The two agree on calibrated traces but can part on adversarial
// ones. Intermediate K trades the responsiveness of aggressive
// backfilling against the predictability of conservative — a useful
// non-preemptive axis to set next to SS, which abandons guarantees
// entirely.
//
// Anchoring runs over the shared sched/core kernel (ReservationLedger +
// BackfillEngine); this file keeps the depth cutoff and the two-pass
// ordering. Arrivals and on-time completions take incrementalPass();
// early completions re-anchor through rebuild(). The rebuild-on-every-
// event shape over a from-scratch profile is kept as the differential
// reference in sps::check (ReferenceDepthBackfill).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sched/core/backfill_engine.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sim/policy.hpp"

namespace sps::sched {

struct DepthConfig {
  /// Number of queued jobs holding reservations. >= 1.
  std::size_t depth = 2;
};

inline constexpr std::size_t kUnlimitedDepth =
    std::numeric_limits<std::size_t>::max();

class DepthBackfill final : public sim::SchedulingPolicy {
 public:
  explicit DepthBackfill(DepthConfig config);

  [[nodiscard]] std::string name() const override;

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Current guarantee of a queued job, or kNoTime when it holds none
  /// (either unreserved or already started). O(log depth): guarantees_
  /// parallels a prefix of the submission-ordered queue, and ids are dense
  /// in submission order, so the vector is sorted by id.
  [[nodiscard]] Time guaranteeOf(JobId job) const;

  /// The kernel ledger backing this policy, for the sps::check ledger
  /// audit. Read-only.
  [[nodiscard]] const kernel::ReservationLedger& ledger() const {
    return ledger_;
  }

 private:
  /// Re-derive the whole schedule decision: anchor the first `depth` queued
  /// jobs (their guarantees must never regress), then backfill the rest
  /// against the resulting profile. Starts everything whose anchor is now.
  void rebuild(sim::Simulator& simulator);

  /// Equivalent of rebuild() for events that leave the
  /// availability function unchanged (every arrival; on-time completions):
  /// existing guarantees are fixed points of pass 1, so they stay in the
  /// ledger untouched. Only due guarantees (start == now), promotions into
  /// freed pass-1 slots, and pass-2 candidates do any profile work.
  void incrementalPass(sim::Simulator& simulator);

  DepthConfig config_;
  kernel::ReservationLedger ledger_;
  kernel::BackfillEngine engine_{ledger_};
  std::vector<JobId> queue_;  ///< submission order
  /// Guarantee per reserved job, parallel to the first entries of queue_.
  /// kNoTime marks "no guarantee recorded yet".
  std::vector<std::pair<JobId, Time>> guarantees_;
};

}  // namespace sps::sched
