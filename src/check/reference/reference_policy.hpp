// check::referencePolicy — the reference lane of every differential check.
//
// Each production policy holds one algorithm. Where an older, simpler shape
// of that algorithm exists, it lives here in sps::check as an oracle, and
// this one function hands it out, so the golden suite, DiffHarness (and
// with it sps_fuzz), the obs, check and scale suites and the engine bench
// all diff against the same reference.
#pragma once

#include <cstdint>
#include <memory>

#include "sched/policy_factory.hpp"
#include "sim/policy.hpp"

namespace sps::check {

/// The reference implementation of the policy `spec` describes:
///  * SS, TSS and online TSS: ReferenceSelectiveSuspension, which sorts the
///    idle set afresh on every walk and uses no kernel index;
///  * EASY and SJF-backfill: RestartScanEasy, which recomputes the shadow
///    and rescans the queue after every backfill start;
///  * conservative: ReferenceConservative, which compresses on every
///    completion;
///  * depth-K: ReferenceDepthBackfill, which re-anchors on every arrival
///    and completion;
///  * FCFS, IS and gang: makePolicy(spec) itself; they have no second
///    shape to diff against.
/// The EASY, conservative and depth references rebuild their availability
/// profile from the running set at every decision point and share no code
/// with the kernel ledger they check.
[[nodiscard]] std::unique_ptr<sim::SchedulingPolicy> referencePolicy(
    const sched::PolicySpec& spec);

/// Which implementation of a policy a differential run uses.
enum class Lane : std::uint8_t {
  Production,  ///< makePolicy(spec): the policy as shipped
  Reference,   ///< referencePolicy(spec): the oracle it is diffed against
};

[[nodiscard]] const char* laneName(Lane lane);

/// The policy `spec` describes, as `lane` runs it.
[[nodiscard]] std::unique_ptr<sim::SchedulingPolicy> lanePolicy(
    const sched::PolicySpec& spec, Lane lane);

}  // namespace sps::check
