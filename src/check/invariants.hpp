// sps::check — the online invariant oracle.
//
// The paper's central claims are safety properties a live observer can
// verify on every run, not just on golden seeds:
//
//   * capacity        — no processor oversubscription, ever (the 2D-chart
//                       packing of Section II is physically realizable);
//   * conservation    — every arrived job runs and finishes exactly once,
//                       and suspensions balance resumes (nothing starves
//                       forever or is lost mid-preemption);
//   * guarantees      — conservative/depth-K start-time guarantees never
//                       regress (the no-starvation argument of Section
//                       II-A: compression may only improve an anchor);
//   * tssBound        — TSS never suspends a job whose slowdown already
//                       meets its category's protection limit (the tunable
//                       worst-case bound of Section IV-E);
//   * ledger          — the incremental AvailabilityProfile equals a
//                       from-scratch rebuild, and the maintained
//                       PriorityIndex of SS/TSS and IS serves the order a
//                       fresh sort gives (the kernel indexes change no
//                       scheduler-visible state).
//
// The validator cores (TransitionAudit, CapacityAudit, GuaranteeAudit,
// checkTssBound) are plain classes fed explicit streams so tests can drive
// them with corrupted histories directly. InvariantChecker composes them
// onto a live run through the typed Simulator::observers() registry and
// discovers policy probes (guaranteeOf, the kernel ledger, the priority
// index, TSS limits) by policy type. Violations throw InvariantError,
// exactly like the simulator's own SPS_CHECK failures.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "check/check_config.hpp"
#include "sim/procset.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace sps::sched {
class SelectiveSuspension;
namespace kernel {
class PriorityIndex;
class ReservationLedger;
}
}  // namespace sps::sched

namespace sps::check {

/// Transition-stream auditor: legality of every (from, to) edge against the
/// simulator's lifecycle graph, per-job sequencing (the observed `from`
/// must be the state the previous transition left the job in), and
/// lifecycle tallies for the end-of-run conservation balance.
class TransitionAudit {
 public:
  /// Per-job lifecycle counts, exposed for the finalize cross-checks.
  struct Tally {
    sim::JobState last = sim::JobState::NotArrived;
    std::uint32_t arrivals = 0;
    std::uint32_t starts = 0;       ///< Queued -> Running
    std::uint32_t resumes = 0;      ///< Suspended -> Running
    std::uint32_t suspensions = 0;  ///< Running -> Suspending/Suspended
    std::uint32_t finishes = 0;
    std::uint32_t cancels = 0;      ///< * -> Cancelled (streaming ingest)
  };

  /// Feed one observed transition; throws InvariantError on an illegal
  /// edge or a `from` that contradicts the job's recorded state.
  void onTransition(JobId id, sim::JobState from, sim::JobState to, Time now);

  /// End-of-run conservation: exactly `expectedJobs` jobs seen, each
  /// arrived once, started once, finished once, with suspensions == resumes.
  void finalize(std::size_t expectedJobs) const;

  [[nodiscard]] const Tally& tally(JobId id);
  [[nodiscard]] std::uint64_t totalStarts() const { return starts_; }
  [[nodiscard]] std::uint64_t totalResumes() const { return resumes_; }
  [[nodiscard]] std::uint64_t totalSuspensions() const { return suspensions_; }

 private:
  std::unordered_map<JobId, Tally> jobs_;
  std::uint64_t starts_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t suspensions_ = 0;
};

/// Occupancy mirror: processor sets held by Running/Suspending jobs,
/// rebuilt independently from the transition stream so a double allocation
/// is caught even when the Machine's own books are internally consistent.
class CapacityAudit {
 public:
  explicit CapacityAudit(std::uint32_t totalProcs);

  /// Job begins holding `procs` (entered Running). Throws if the set is
  /// empty, overlaps another job's, or the job already holds one.
  void hold(JobId id, const sim::ProcSet& procs, Time now);
  /// Job stops holding its processors (left Running/Suspending for a
  /// non-holding state). Throws if it holds none.
  void release(JobId id, Time now);

  /// The held sets and `freeSet` must partition the machine exactly.
  void verify(const sim::ProcSet& freeSet, Time now) const;

  [[nodiscard]] std::uint32_t heldCount() const { return held_.count(); }

 private:
  std::uint32_t total_;
  sim::ProcSet all_;   ///< {0 .. total-1}
  sim::ProcSet held_;  ///< union of every job's held set
  std::unordered_map<JobId, sim::ProcSet> byJob_;
};

/// Start-time guarantee monotonicity: once a queued job is observed with a
/// guarantee, every later observation (while still queued) must be at the
/// same time or earlier, and the guarantee may not disappear.
class GuaranteeAudit {
 public:
  /// Record one observation; `guarantee` == kNoTime means "none held".
  void observe(JobId id, Time guarantee, Time now);
  /// The job started (or finished): its guarantee is consumed, not lost.
  void forget(JobId id);

 private:
  std::unordered_map<JobId, Time> last_;
};

/// TSS bound: a suspension of `id` at priority (slowdown) `priority` under
/// protection limit `limit` must satisfy priority < limit — a job at or
/// past its category limit has suffered its bound already.
void checkTssBound(JobId id, double priority, double limit, Time now);

/// Composes the validators onto a live run. Construct, arm() before
/// Simulator::run(), finalize() after. One checker serves one run.
class InvariantChecker {
 public:
  using GuaranteeProbe = std::function<Time(JobId)>;
  using TssProbe =
      std::function<std::optional<double>(const sim::Simulator&, JobId)>;

  explicit InvariantChecker(CheckConfig config) : config_(config) {}

  /// Register observers on the simulator and discover the policy's probes
  /// (guarantee oracle, kernel ledger, TSS protection limits) by type.
  /// Must run before Simulator::run() so the kernel's own observers see
  /// the same stream the checker audits.
  void arm(sim::Simulator& simulator, const sim::SchedulingPolicy& policy);

  /// End-of-run half of the conservation checks: per-job lifecycle balance
  /// against JobOutcome, totals against the sps::obs counters, final capacity
  /// partition, final ledger audit.
  void finalize(const sim::Simulator& simulator);

  /// Sampled (per-auditStride) audits performed, for tests asserting the
  /// oracle actually ran.
  [[nodiscard]] std::uint64_t epochAudits() const { return epochAudits_; }

  /// Test seams: install a probe in place of (or in the absence of) the
  /// discovered one — how the corrupted-run suite makes a healthy
  /// simulation look like it broke a guarantee or the TSS bound.
  void setGuaranteeProbe(GuaranteeProbe probe) {
    guaranteeProbe_ = std::move(probe);
  }
  void setTssProbe(TssProbe probe) { tssProbe_ = std::move(probe); }

 private:
  void onStateChange(const sim::Simulator& s, JobId id, sim::JobState from,
                     sim::JobState to);
  void onEvent(const sim::Simulator& s);
  /// The ledger toggle's audits: the reservation ledger against a rebuild,
  /// the priority index against a fresh sort.
  void auditKernel(const sim::Simulator& s) const;

  CheckConfig config_;
  TransitionAudit transitions_;
  std::optional<CapacityAudit> capacity_;
  GuaranteeAudit guarantees_;
  GuaranteeProbe guaranteeProbe_;
  TssProbe tssProbe_;
  const sched::kernel::ReservationLedger* ledger_ = nullptr;
  const sched::kernel::PriorityIndex* index_ = nullptr;
  std::uint64_t dispatches_ = 0;
  std::uint64_t epochAudits_ = 0;
  bool armed_ = false;
};

}  // namespace sps::check
