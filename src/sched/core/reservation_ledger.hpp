// ReservationLedger — the scheduling kernel's incrementally-maintained
// availability profile (the paper's Section II-A "2D chart", kept alive
// across events instead of rebuilt at each one).
//
// The ledger owns one AvailabilityProfile holding two kinds of busy
// intervals:
//
//   * running jobs' estimated remainders — [segStart, segStart + estimate),
//     entered automatically when a job starts and released when it leaves
//     the Running state, via a Simulator state-change observer;
//   * reservations — future start-time guarantees a backfilling policy has
//     handed out, entered and released explicitly through addReservation /
//     removeReservation.
//
// Policies call refresh() once at the top of every decision point; it
// only advances the profile origin to now() (dropping elapsed steps), so
// the amortized maintenance cost per event is the handful of
// addBusy/removeBusy calls its transitions actually cause — not a rebuild
// over every active job. The from-scratch shape (profile rebuilt from the
// running set plus the reservations at every decision point) lives in the
// sps::check reference policies, which use no ledger, and in audit().
//
// Suspension is effectively out of scope: the ledger drops a job's
// interval as soon as it leaves Running, and a resumed segment is
// re-entered with the full user estimate (uniform with fresh starts, and
// what a from-scratch rebuild would enter). The policies that anchor
// against profiles (conservative, EASY, depth) are exactly the
// non-preemptive ones, so the resumed case is never exercised in practice.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "sched/availability_profile.hpp"
#include "util/types.hpp"

namespace sps::sim {
class Simulator;
enum class JobState : std::uint8_t;
}

namespace sps::sched::kernel {

class ReservationLedger {
 public:
  /// Bind to a simulator: resets all state, sizes the profile to the
  /// machine, and registers the state-change observer that keeps the
  /// running layer current between refreshes (a policy that starts jobs
  /// mid-decision needs the profile to follow). Call from
  /// onSimulationStart. A ledger serves one simulator at a time and must
  /// outlive it.
  void attach(sim::Simulator& simulator);

  /// Bring the profile up to date with the simulation clock: shift the
  /// origin to now(). Call once at the top of every policy decision point,
  /// before any query.
  void refresh(const sim::Simulator& simulator);

  // --- reservations (the policy-owned layer) ---------------------------
  /// Record a start-time guarantee occupying [start, start + duration).
  /// The job must not already hold a reservation.
  void addReservation(JobId job, Time start, Time duration,
                      std::uint32_t procs);
  /// Release a guarantee previously recorded with addReservation.
  void removeReservation(JobId job);
  [[nodiscard]] bool hasReservation(JobId job) const {
    return reservations_.count(job) != 0;
  }
  [[nodiscard]] std::size_t reservationCount() const {
    return reservations_.size();
  }

  // --- queries ----------------------------------------------------------
  /// The profile of running remainders + reservations, valid as of the
  /// last refresh(). Do not mutate; BackfillEngine owns scan overlays.
  [[nodiscard]] const AvailabilityProfile& profile() const {
    return profile_;
  }
  [[nodiscard]] AvailabilityProfile& mutableProfile() { return profile_; }

  /// Invariant audit (sps::check): the running layer must mirror the
  /// simulator's Running set exactly (same jobs, segment starts, widths,
  /// believed ends), and the profile must equal a from-scratch rebuild of
  /// running entries + reservations at the profile's current origin
  /// (AvailabilityProfile::sameFunctionAs). Read-only; callable between
  /// events. Throws InvariantError on divergence.
  void audit(const sim::Simulator& simulator) const;

  /// Total processors held by running jobs whose *estimated* end is <= now
  /// — their completion events are pending in the current timestamp batch,
  /// so the profile already counts them free, but the machine has not
  /// released them yet. EASY's shadow computation re-occupies them for
  /// [now, now + 1).
  [[nodiscard]] std::uint32_t zombieProcsAt(Time now) const;

 private:
  struct RunningEntry {
    Time start;
    Time end;
    std::uint32_t procs;
    /// Position in byEnd_ for O(log n) removal.
    std::multimap<Time, std::uint32_t>::iterator endIt;
  };
  struct ReservationEntry {
    Time start;
    Time end;
    std::uint32_t procs;
  };

  void onTransition(const sim::Simulator& simulator, JobId id,
                    sim::JobState from, sim::JobState to);
  std::uint32_t totalProcs_ = 0;
  AvailabilityProfile profile_{0, 0};
  std::unordered_map<JobId, RunningEntry> running_;
  /// Running entries keyed by estimated end, for the zombie query.
  std::multimap<Time, std::uint32_t> byEnd_;
  std::unordered_map<JobId, ReservationEntry> reservations_;
  /// Distinguishes the simulator currently served from a stale one still
  /// holding our observer (a policy may be re-attached across runs).
  const sim::Simulator* attached_ = nullptr;
};

}  // namespace sps::sched::kernel
