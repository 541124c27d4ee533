// Selective Suspension (SS) and Tunable Selective Suspension (TSS) —
// Section IV of the paper, the primary contribution.
//
// Priority-based local preemption on top of reservation-free backfilling:
//
//  * Suspension priority = expansion factor (Eq. 2): (wait + estimate) /
//    estimate, where wait accrues only while queued or suspended. It grows
//    fast for short jobs, slowly for long jobs, and grows without bound —
//    that is the starvation-freedom argument that lets SS drop reservation
//    guarantees entirely.
//  * An idle job may suspend a running job only if its priority is at least
//    SF (the suspension factor) times the running job's priority. SF = 2
//    provably eliminates repeated mutual suspension of equal-length tasks;
//    smaller SF trades more suspensions for better short-job service
//    (Section IV-A, Figs. 4-6).
//  * Half-width rule: a preemptor must request at least half the processors
//    of each victim, so narrow jobs cannot evict wide ones (wide jobs
//    already struggle to collect victims; Section IV-B).
//  * Reentry: a suspended job must reclaim its exact processors (local
//    preemption, no migration). When it attempts reentry it may preempt the
//    current occupants of those processors under the same priority test, and
//    the half-width rule is waived so a narrow job stranded under a wide one
//    is not stuck until the wide job completes (Section IV-C).
//  * The preemption routine runs every minute (Section IV-B); plain
//    dispatch (start whatever fits, highest priority first, skipping past
//    blocked jobs — backfilling without guarantees) runs on every event.
//  * TSS (Section IV-E): a running job whose priority already exceeds its
//    category limit (1.5 x that category's average slowdown under NS) may
//    not be preempted, which caps worst-case slowdown/turnaround without
//    hurting the averages.
//
// One algorithm: the kernel indexes (PriorityIndex over the idle jobs,
// VictimIndex over the running ones) and the event fast paths (arrival
// shortcut, tick gate, claim gate, walk fast-outs) are always on. Their
// reference is check::ReferenceSelectiveSuspension, which re-sorts and
// re-scans on every decision; the golden suite, DiffHarness and
// test_ss_differential pin the two bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sched/core/priority_index.hpp"
#include "sched/core/victim_index.hpp"
#include "sim/policy.hpp"
#include "sim/procset.hpp"
#include "workload/category.hpp"

namespace sps::sched {

/// How fresh starts treat processors "owed" to suspended jobs (which must
/// resume on their exact original sets — local preemption, no migration).
enum class OwedProcsPolicy {
  /// Ignore ownership: allocate lowest-numbered free processors.
  Squat,
  /// Draw from un-owed processors first, dip into owed sets for shortfall.
  Prefer,
  /// Hard lease: fresh jobs never take owed processors; only the preemption
  /// path may (a preemptor consumes its own victims' processors). This is
  /// the only discipline under which suspended jobs are guaranteed to
  /// reassemble their sets within their occupants' remaining runtimes, and
  /// it is required to reproduce the paper's utilization-vs-load results
  /// (Figs. 35/38) — see bench_ablation_allocation.
  Lease,
};

struct SsConfig {
  /// Minimum ratio of preemptor priority to victim priority (SF). The paper
  /// evaluates 1.5, 2, and 5; values below 1 allow priority inversions and
  /// are rejected.
  double suspensionFactor = 2.0;

  /// Enforce the half-width rule for fresh (never-suspended) preemptors.
  bool halfWidthRule = true;

  /// Period of the preemption routine, seconds.
  Time preemptionInterval = kMinute;

  /// Fresh-start discipline for processors owed to suspended jobs.
  OwedProcsPolicy owedProcs = OwedProcsPolicy::Lease;

  /// Migratable-job model (Parsons & Sevcik, paper related work): a
  /// suspended job may restart on ANY free processors instead of its exact
  /// original set. The paper's main model — and the default — is local
  /// preemption (no migration); this flag exists to quantify what the
  /// no-migration constraint costs (bench_ablation_migration).
  bool migratableJobs = false;

  /// TSS: per-Category16 victim-protection limits. A running job whose
  /// current priority >= limit of its category cannot be suspended. The
  /// category is computed from the *estimate* (the only runtime signal a
  /// real scheduler has). std::nullopt = plain (untuned) SS.
  std::optional<std::array<double, workload::kNumCategories16>> tssLimits;

  /// Online-adaptive TSS (extension): instead of pre-calibrated limits,
  /// maintain a running average of completed jobs' bounded slowdowns per
  /// category and protect victims above multiplier x that average. A
  /// category protects nothing until it has tssOnlineMinSamples
  /// completions. Mutually exclusive with tssLimits.
  std::optional<double> tssOnlineMultiplier;
  std::size_t tssOnlineMinSamples = 20;
};

class SelectiveSuspension final : public sim::SchedulingPolicy {
 public:
  explicit SelectiveSuspension(SsConfig config);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const SsConfig& config() const { return config_; }

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSuspendDrained(sim::Simulator& simulator, JobId job) override;
  void onTimer(sim::Simulator& simulator, std::uint64_t tag) override;
  /// Idle membership lives in the kernel PriorityIndex, which follows the
  /// ->Cancelled transition like any other departure; the only policy-owned
  /// reference to repair is a capacity claim held by the cancelled job.
  [[nodiscard]] bool supportsCancel() const override { return true; }
  void onJobCancelled(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Preemptions initiated (== victims suspended) so far.
  [[nodiscard]] std::uint64_t preemptionsInitiated() const {
    return preemptions_;
  }

  /// Current TSS victim-protection limit applying to `job`: the static
  /// per-category limit (tssLimits), or the online average once the job's
  /// category has enough samples; nullopt when no protection applies
  /// (plain SS, or an online category still warming up). Evaluated against
  /// the same state victimEligible sees, so the sps::check TSS-bound
  /// oracle can assert every suspension honoured it.
  [[nodiscard]] std::optional<double> victimProtectionLimit(
      const sim::Simulator& s, JobId job) const;

  /// The idle-priority index, for the sps::check index audit.
  [[nodiscard]] const kernel::PriorityIndex& idleIndex() const {
    return idleIndex_;
  }

 private:
  /// A preemptor that paid for suspensions whose processors are still
  /// draining (only arises with an overhead model). The claim fences the
  /// capacity it is owed against other starters.
  struct Claim {
    JobId job;
    bool exact;  ///< reentry claim: the job's saved processor set is fenced
  };

  [[nodiscard]] bool isClaimant(JobId id) const;
  /// Sum of processor counts owed to count-based (fresh) claims. Served
  /// from a dirty-flagged cache invalidated on claims_ mutation.
  [[nodiscard]] std::uint32_t claimedCount(const sim::Simulator& s) const;
  /// Union of processor sets fenced by exact (reentry) claims. Same cache.
  [[nodiscard]] const sim::ProcSet& claimedSet(const sim::Simulator& s) const;
  /// Rebuild both claim caches if claims_ changed since the last read.
  void refreshClaims(const sim::Simulator& s) const;

  /// Union of processor sets owed to suspended jobs (they must resume on
  /// exactly these). Fresh starts avoid them when possible so suspended
  /// jobs are not stranded behind squatters. Served from the simulator's
  /// refcounted suspendedOwedSet() aggregate — O(1), audited by sps::check.
  [[nodiscard]] const sim::ProcSet& suspendedSets(
      const sim::Simulator& s) const;

  /// Start a fresh job, preferring processors no suspended job is owed.
  void startFreshPreferring(sim::Simulator& s, JobId id);

  /// Victim-protection test: priority ratio, TSS limit, and (for fresh
  /// preemptors) the half-width rule.
  [[nodiscard]] bool victimEligible(const sim::Simulator& s, JobId victim,
                                    double preemptorPriority,
                                    std::uint32_t preemptorWidth,
                                    bool reentry) const;

  /// Start/resume everything that fits on unclaimed free processors,
  /// claimants first. Runs on every event.
  void dispatch(sim::Simulator& simulator);

  /// The paper's preemption routine (pseudocode, Section IV-C), run on the
  /// periodic timer: VictimIndex range queries, a gain bound and a 16-way
  /// merge over the gate's candidate prefix. It makes the same decisions as
  /// the rebuild-shaped check::ReferenceSelectiveSuspension (argued inline)
  /// for a fraction of the work.
  void preemptionPass(sim::Simulator& simulator);

  /// Tick gate: one sweep over the idle jobs that both
  /// decides skippability and gathers the pass's working set. Returns true
  /// when this tick's pass is provably a no-op — every idle candidate's
  /// priority is below SF x the weakest running priority, so every SF test
  /// in the pass would fail. Otherwise tickPrefix_ holds the (priority, id)
  /// pairs at or above that threshold — exactly the candidates the pass
  /// can reach before its live break — so the pass needs no further index
  /// work. Caches the verdict with a transition stamp and an algebraic
  /// horizon so consecutive quiet ticks skip in O(1).
  [[nodiscard]] bool tickPassSkippable(sim::Simulator& simulator);

  /// Suspend `victims` on behalf of preemptor `id` needing `width` procs
  /// beyond `freeNow`: widest-first until covered, then claim or place the
  /// preemptor.
  void executeFreshPreemption(sim::Simulator& simulator, JobId id,
                              std::uint32_t width, std::uint32_t freeNow,
                              std::vector<JobId>& victims);

  void armTick(sim::Simulator& simulator);

  SsConfig config_;
  kernel::PriorityIndex idleIndex_;
  kernel::VictimIndex victimIndex_;
  std::vector<Claim> claims_;
  /// Claim-fence caches; claims_ mutations set claimsDirty_.
  mutable sim::ProcSet claimedSetCache_;
  mutable std::uint32_t claimedCountCache_ = 0;
  mutable bool claimsDirty_ = true;
  /// Tick-gate cache: while SimTransitions still equals gateStamp_ and
  /// now < gateSkipUntil_, the last gate verdict (skip) still holds.
  std::uint64_t gateStamp_ = ~std::uint64_t{0};
  Time gateSkipUntil_ = kNoTime;
  /// Gate-sweep carryover into the pass: idle candidates at or above the
  /// SF threshold as (priority, id), unsorted until the pass sorts them.
  std::vector<std::pair<double, JobId>> tickPrefix_;
  /// Earliest time a below-threshold candidate can cross SF x minPriority
  /// (from the gate sweep) / earliest time any examined candidate's failed
  /// arm can go live via an SF-boundary crossing (from a no-op pass). Their
  /// min extends gateSkipUntil_ past passes that ran but did nothing.
  Time sweepHorizon_ = kNoTime;
  Time passHorizon_ = kNoTime;
  /// Pass scratch, reused across ticks to avoid per-pass allocation.
  std::vector<JobId> occupantsScratch_;
  std::vector<JobId> victimsScratch_;
  std::vector<std::uint64_t> seenStamp_;  ///< occupant dedup, per job
  std::uint64_t seenGen_ = 0;
  bool tickArmed_ = false;
  std::uint64_t preemptions_ = 0;
  /// Online-TSS state: running average slowdown of completed jobs per
  /// estimate-based category.
  std::array<std::pair<std::uint64_t, double>, workload::kNumCategories16>
      onlineSlowdowns_{};
};

}  // namespace sps::sched
