// PriorityIndex — maintained priority ordering of the idle jobs (queued +
// fully-suspended), the third piece of the scheduling kernel.
//
// The preemptive policies (SS/TSS, IS) walk the idle set in priority order
// at every decision point — and a single event typically triggers several
// such walks (resume pass, backfill pass, preemption pass). Instead of
// re-gathering and re-sorting the set for each walk, the index follows idle
// membership through a state-change observer and keeps the sorted order
// until the clock reaches the earliest time two entries could swap (see
// attach()).
//
// Comparators are strict total orders (every tie broken by job id), so the
// sort result is independent of the input order — which is what makes the
// simulator's unordered (swap-and-pop) job lists safe to consume here.
//
// Walks borrow the maintained order: callers mutate the simulator while
// walking (starting and suspending jobs), and the walk's live state filter
// hides every job that left the idle set.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace sps::sim {
class Simulator;
enum class JobState : std::uint8_t;
}  // namespace sps::sim

namespace sps::sched::kernel {

/// Priority order over idle jobs.
enum class IndexOrder : std::uint8_t {
  /// Expansion factor descending (the SS suspension priority, Eq. 2); ties
  /// by submit time, then id.
  XFactorDesc,
  /// Submission order (IS dispatch); ties by id.
  SubmitAsc,
};

/// Which lifecycle states a walk over the index yields.
enum class IdleFilter : std::uint8_t {
  Queued = 1,
  Suspended = 2,
  Idle = 3,  ///< Queued | Suspended
};

/// Borrowing, skip-on-stale view over the index's maintained order
/// (PriorityIndex::walk). The order is a snapshot, but the *membership
/// test is live*: each step re-reads the job's current state and skips
/// entries that no longer match the filter — so jobs started, resumed, or
/// suspended mid-walk (the walker's own actions) disappear from the walk
/// at the index layer instead of needing a state re-check at every call
/// site. Valid until the next walk() on the owning index; no copy of the
/// order is made.
class IdleWalk {
 public:
  class iterator {
   public:
    using value_type = JobId;
    [[nodiscard]] JobId operator*() const { return (*walk_->order_)[pos_]; }
    iterator& operator++() {
      ++pos_;
      settle();
      return *this;
    }
    [[nodiscard]] bool operator==(const iterator& o) const {
      return pos_ == o.pos_;
    }

   private:
    friend class IdleWalk;
    iterator(const IdleWalk* walk, std::size_t pos)
        : walk_(walk), pos_(pos) {
      settle();
    }
    /// Advance past entries whose current state fails the filter.
    void settle();

    const IdleWalk* walk_;
    std::size_t pos_;
  };

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, order_->size()}; }

 private:
  friend class PriorityIndex;
  IdleWalk(const std::vector<JobId>& order, const sim::Simulator& simulator,
           IdleFilter filter)
      : order_(&order), sim_(&simulator), filter_(filter) {}

  const std::vector<JobId>* order_;
  const sim::Simulator* sim_;
  IdleFilter filter_;
};

class PriorityIndex {
 public:
  explicit PriorityIndex(IndexOrder order) : order_(order) {}

  /// Bind to a simulator and register a state-change observer that keeps
  /// idle *membership* current (the way VictimIndex follows the running
  /// set), so walks serve the cached order without a per-event rebuild. The
  /// *order* is revalidated against a crossing horizon: idle priorities all
  /// rise with the clock but at per-job rates (slope 1/estimate), so the
  /// earliest time any two adjacent entries can swap is computable at sort
  /// time — until then a fresh sort would reproduce the cached order
  /// bit-identically, and the order stays valid across arbitrarily many
  /// transitions that walks' live state filter already hides. Call from
  /// onSimulationStart.
  void attach(sim::Simulator& simulator);

  /// Borrowing skip-on-stale view over the idle jobs — Queued plus
  /// fully-Suspended (never Suspending) — in index order. Jobs whose state
  /// changes mid-walk are filtered by the iterator itself. The view is
  /// invalidated by the next walk() on this index.
  [[nodiscard]] IdleWalk walk(const sim::Simulator& simulator,
                              IdleFilter filter = IdleFilter::Idle);

  /// Invariant audit (sps::check), read-only: the live entries plus the
  /// unplaced arrivals are exactly the simulator's idle set, and while the
  /// crossing horizon holds the live entries are in the order a
  /// from-scratch sort of them gives now. Throws InvariantError on a
  /// mismatch. A no-op before the first walk (nothing is tracked yet).
  void audit(const sim::Simulator& simulator) const;

 private:
  /// Cache check: full refresh on horizon expiry, pending insertion
  /// otherwise.
  void ensureMaintained(const sim::Simulator& simulator);
  /// Full refresh: gather membership on first use, otherwise apply the
  /// tracked churn and repair the order with a seeded sort; then compute a
  /// fresh adjacent-pair crossing horizon.
  void refresh(const sim::Simulator& simulator);
  /// Precompute priorities for the current members and sort idle_ under the
  /// index comparator.
  void sortCurrent(const sim::Simulator& simulator, bool seeded);
  /// Drop tombstoned entries (jobs no longer idle — walks were already
  /// skipping them) and stale copies of pending jobs from idle_.
  void dropTombstones(const sim::Simulator& simulator);
  /// Drop tombstones and binary-insert the pending arrivals/drains, folding
  /// each new adjacency's crossing into the running horizon minimum.
  void compactAndApply(const sim::Simulator& simulator);
  /// Fold the crossing time of adjacent entries idle_[i], idle_[i+1]
  /// (current priorities xa >= xb) into orderValidUntil_.
  void pairHorizon(const sim::Simulator& simulator, std::size_t i,
                   double xa, double xb);

  IndexOrder order_;
  const sim::Simulator* attached_ = nullptr;
  /// Membership has been gathered since attach() and the observer has
  /// tracked every idle transition since.
  bool valid_ = false;
  std::vector<JobId> idle_;
  /// Per-job priority scratch, indexed by JobId — computed once per sort
  /// instead of inside the sort comparator.
  std::vector<double> priority_;
  /// The cached order is fresh-sort-consistent while now < orderValidUntil_
  /// (exclusive); pending_ holds jobs that entered the idle set since the
  /// last walk and await placement. Entries whose jobs left the idle set
  /// are tombstones: walks' live state filter hides them, and they are
  /// compacted away before the next placement.
  Time orderValidUntil_ = kNoTime;
  std::vector<JobId> pending_;
  std::vector<std::uint8_t> inPending_;  ///< compaction scratch, per job
};

}  // namespace sps::sched::kernel
