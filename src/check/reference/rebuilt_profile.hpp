// The from-scratch availability profile the backfilling references in
// sps::check anchor against. At every decision point a reference rebuilds
// it from the simulator's running set (plus, for the reservation-holding
// policies, its own guarantees) and enters each job it starts by hand, so
// no incremental structure of the production kernel (its reservation
// ledger or backfill engine) stands between the reference and the
// schedule it derives. The rules below restate the kernel's anchor, shadow and
// backfill rules over that profile.
#pragma once

#include <cstdint>

#include "sched/availability_profile.hpp"
#include "util/types.hpp"

namespace sps::sim {
class Simulator;
}

namespace sps::check {

/// Free processors over time given the running jobs alone, with origin
/// now(): each running segment occupies [segStart, segStart + estimate).
[[nodiscard]] sched::AvailabilityProfile runningProfile(
    const sim::Simulator& simulator);

/// Enter `job` as occupying [start, start + estimate) on its full width.
void occupy(sched::AvailabilityProfile& profile,
            const sim::Simulator& simulator, JobId job, Time start);

struct RebuiltAnchor {
  Time start;
  /// start == now() and the job fits the currently free processors (a
  /// completion pending at this instant makes the profile optimistic).
  bool startNow;
};

/// Earliest start of `job` for its full estimate against `profile`.
[[nodiscard]] RebuiltAnchor anchorAgainst(
    const sched::AvailabilityProfile& profile,
    const sim::Simulator& simulator, JobId job);

struct RebuiltShadow {
  Time time;            ///< earliest guaranteed start of the head job
  std::uint32_t extra;  ///< processors free beside the head at that time
};

/// EASY's shadow for a head job that does not fit now, over a fresh
/// running profile. Running jobs whose believed end has passed (their
/// completions are pending at this instant) stay busy over [now, now + 1).
[[nodiscard]] RebuiltShadow shadowAgainstRunning(
    const sim::Simulator& simulator, JobId head);

/// EASY admission: `job` fits now and ends by the shadow time or needs no
/// more than the extra processors.
[[nodiscard]] bool backfillsUnder(const sim::Simulator& simulator, JobId job,
                                  const RebuiltShadow& shadow);

/// Processors held by running jobs whose believed end is <= now().
[[nodiscard]] std::uint32_t zombieProcs(const sim::Simulator& simulator);

}  // namespace sps::check
