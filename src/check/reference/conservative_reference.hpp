// Compress-on-every-completion conservative backfilling — the differential
// reference for sched::ConservativeBackfill.
//
// It implements the paper's Section II-A.1 rule in its most direct shape:
// at every decision point it rebuilds the availability profile from the
// running jobs plus its own reservations (rebuilt_profile.hpp), and every
// completion, on time or early, releases all reservations and re-anchors
// them in the order they hold, which is increasing guarantee with ties in
// the order compression last left them. It uses neither the kernel's
// reservation ledger nor its backfill engine, and takes no completion fast
// path, so a fault in the kernel's incremental maintenance or in the
// production class's shortcut shows up as a schedule divergence against
// this class. check::referencePolicy returns it for "conservative".
#pragma once

#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace sps::check {

class ReferenceConservative final : public sim::SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Conservative"; }

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Current guarantee of a queued job, or kNoTime when it holds none.
  [[nodiscard]] Time guaranteeOf(JobId job) const;

 private:
  struct Reservation {
    JobId job;
    Time start;
  };

  void compress(sim::Simulator& simulator);

  std::vector<Reservation> reservations_;  ///< sorted by start, ties kept
};

}  // namespace sps::check
