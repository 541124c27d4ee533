// CheckConfig — toggle block for the sps::check invariant oracle.
//
// Plain data with no dependencies so core::SimulationOptions can embed one
// without pulling the checker machinery into every translation unit. All
// checkers default off: a default-constructed config arms nothing and
// runSimulation skips the checker entirely (off ≈ zero cost).
#pragma once

#include <cstdint>

namespace sps::check {

struct CheckConfig {
  /// No processor oversubscription: the union of processor sets held by
  /// Running/Suspending jobs and the machine's free set partition the
  /// machine, and no two jobs' sets overlap (mirrored from transitions, so
  /// a double-allocation is caught even if Machine's own books agree).
  bool capacity = false;

  /// Transition legality + lifecycle conservation: every arrived job is
  /// arrived exactly once, started before it finishes, suspended exactly as
  /// often as it is resumed (+1 if suspended at the end, which never
  /// survives a completed run), finished exactly once; and the sps::obs
  /// counters (sim.starts / sim.resumes / sim.suspensions and the
  /// per-category breakdown) balance against the observed stream.
  bool conservation = false;

  /// Guarantee monotonicity: a queued job's start-time guarantee
  /// (conservative / depth-K anchor, via guaranteeOf) never moves later —
  /// the paper's no-starvation argument for reservation-based backfilling.
  bool guarantees = false;

  /// TSS bound compliance: no job is suspended while its priority
  /// (slowdown-at-suspension) already meets its category's victim-
  /// protection limit — the tunable guarantee of Section IV-E.
  bool tssBound = false;

  /// Kernel-index consistency: the ReservationLedger's incrementally-
  /// maintained AvailabilityProfile matches a from-scratch rebuild at
  /// sampled epochs, and its running layer matches the simulator's running
  /// set exactly; the PriorityIndex of SS/TSS and IS tracks exactly the
  /// idle set, in the order a fresh sort gives while its horizon holds.
  bool ledger = false;

  /// Stride for the sampled audits (ledger rebuild comparison, index audit
  /// and the guarantee poll): run them on every auditStride-th dispatched
  /// event. 1 = every event (what the fuzzer and the test suites use); the CLI
  /// default keeps the oracle affordable on long traces.
  std::uint32_t auditStride = 16;

  [[nodiscard]] bool any() const {
    return capacity || conservation || guarantees || tssBound || ledger;
  }

  /// Everything armed at the given stride.
  [[nodiscard]] static CheckConfig all(std::uint32_t stride = 16) {
    CheckConfig c;
    c.capacity = c.conservation = c.guarantees = c.tssBound = c.ledger = true;
    c.auditStride = stride == 0 ? 1 : stride;
    return c;
  }
};

}  // namespace sps::check
