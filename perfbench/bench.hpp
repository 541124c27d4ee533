// perfbench — the repository's end-to-end benchmark.
//
// One binary runs one named workload from a seed: untraced timed
// iterations for the end-to-end metrics, an untimed verification pass with
// the sps::check oracle armed, and (with --trace 1) one traced run that
// times each layer from outside, around calls to its public entry points.
// perfbench/run.py builds it and is the command BENCHMARK.json names.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/collector.hpp"
#include "sched/policy_factory.hpp"
#include "sim/policy.hpp"
#include "workload/job.hpp"

namespace pb {

// --- clocks and sample math (layers.cpp) ----------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Percentile q (0..100) of a sample, linearly interpolated between the
/// two closest ranks (rank = q/100 * (n-1)). Requires a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median of a non-empty sample (percentile 50).
[[nodiscard]] double median(std::vector<double> values);

/// Samples strictly above the rank of percentile q in a sample of n: how
/// much evidence backs a tail percentile. p99 of 1000 samples has 10.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double q);

/// Mean of values[begin, end), or 0 for an empty range.
[[nodiscard]] double meanOf(const std::vector<double>& values,
                            std::size_t begin, std::size_t end);

/// Fastest repeat of each segment of a run phase. Every untraced execution
/// of one seed does the same simulated work, segment by segment, and load
/// from outside the process only ever adds time; so the minimum of each
/// segment over the executions is its cost with that load filtered out,
/// even when no single execution ran entirely undisturbed.
class BestSegments {
 public:
  /// Fold in one execution's segment times. False, and no change, when it
  /// has a different number of segments than the executions before it.
  bool add(const std::vector<double>& ns);
  [[nodiscard]] const std::vector<double>& ns() const { return best_; }
  [[nodiscard]] double totalNs() const;

 private:
  std::vector<double> best_;
};

/// Speed of the host, read from a fixed loop that owes nothing to the
/// program under test: a serial chain of integer xorshift steps. On a
/// shared host the whole machine runs faster or slower for minutes at a
/// time, by up to about 15%; the loop slows with it, so the wall-clock
/// metrics are scaled to the speed at which it takes kReferenceNs.
class HostPace {
 public:
  /// Loop time on a 4-vCPU Xeon VM in a quiet period.
  static constexpr double kReferenceNs = 3.5e6;
  /// Time the loop three times and keep the fastest as one sample.
  void sample();
  /// Median of the samples; kReferenceNs before the first one.
  [[nodiscard]] double loopNs() const;
  [[nodiscard]] std::size_t samples() const { return ns_.size(); }

 private:
  std::vector<double> ns_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/// A wall time measured while the pace loop took `loopNs`, scaled to the
/// reference pace.
[[nodiscard]] double atReferencePace(double seconds, double loopNs);

// --- spans (layers.cpp) ----------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest through an
/// explicit stack; each closed span adds its duration and its self time
/// (duration minus the part its children cover) to a per-name aggregate,
/// so layer totals are exact however many spans a run makes. The first
/// `exportCap` spans are also kept whole (name, start, end, parent, id)
/// and written out as Chrome-trace JSON when the run ends.
class Tracer {
 public:
  struct Aggregate {
    std::string name;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
    std::uint64_t count = 0;
  };

  explicit Tracer(std::size_t exportCap = 50000) : exportCap_(exportCap) {}

  /// Stable small id for a span name; intern once, outside hot loops.
  [[nodiscard]] int intern(std::string_view name);

  /// Open a span under the innermost open one. `id` names the run, the
  /// protocol line or the shard the span belongs to.
  void begin(int name, std::uint64_t id);
  /// Close the innermost span; returns its duration in ns.
  std::int64_t end();
  /// Record an already-finished child of the innermost open span.
  void child(int name, std::uint64_t id, std::int64_t startNs,
             std::int64_t endNs);
  /// Start time of the innermost open span.
  [[nodiscard]] std::int64_t openStart() const;

  [[nodiscard]] const std::vector<Aggregate>& aggregates() const {
    return aggs_;
  }
  [[nodiscard]] const Aggregate& aggregate(std::string_view name) const;
  /// Sum of the self time of every span whose name starts with `prefix`.
  [[nodiscard]] double selfSeconds(std::string_view prefix) const;
  /// Sum of the total time of spans named exactly `name`.
  [[nodiscard]] double totalSeconds(std::string_view name) const;

  /// Chrome-trace JSON ("X" complete events, microseconds) of the kept
  /// spans; Perfetto and chrome://tracing open it.
  [[nodiscard]] bool writeChromeTrace(const std::string& path) const;
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  struct Frame {
    int name;
    std::int64_t start;
    std::int64_t childNs;
    std::int64_t exported;  ///< index into kept_, or -1
    std::uint64_t id;
  };
  struct Kept {
    int name;
    std::int64_t parent;  ///< index into kept_, or -1
    std::uint64_t id;
    std::int64_t start;
    std::int64_t end;
  };
  void close(int name, std::int64_t start, std::int64_t end,
             std::int64_t childNs, std::int64_t exported);
  std::int64_t keep(int name, std::uint64_t id, std::int64_t start);

  std::size_t exportCap_;
  std::size_t dropped_ = 0;
  std::vector<Aggregate> aggs_;
  std::vector<Frame> stack_;
  std::vector<Kept> kept_;
};

/// Forwarding SchedulingPolicy that times every callback of the policy
/// sched::makePolicy(spec) builds, as sched.* spans. The callback times
/// include the Simulator and Machine calls the policy makes.
class TimedPolicy final : public sps::sim::SchedulingPolicy {
 public:
  TimedPolicy(const sps::sched::PolicySpec& spec, Tracer& tracer);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void onSimulationStart(sps::sim::Simulator& simulator) override;
  void onJobArrival(sps::sim::Simulator& simulator, sps::JobId job) override;
  void onJobCompletion(sps::sim::Simulator& simulator,
                       sps::JobId job) override;
  void onSuspendDrained(sps::sim::Simulator& simulator,
                        sps::JobId job) override;
  void onTimer(sps::sim::Simulator& simulator, std::uint64_t tag) override;
  [[nodiscard]] bool supportsCancel() const override {
    return inner_->supportsCancel();
  }
  void onJobCancelled(sps::sim::Simulator& simulator,
                      sps::JobId job) override;
  void onSimulationEnd(sps::sim::Simulator& simulator) override;
  /// Run once the inner policy attached its kernel observers: lets the
  /// caller register a state-change observer that fires after them.
  std::function<void(sps::sim::Simulator&)> afterStart;

 private:
  std::unique_ptr<sps::sim::SchedulingPolicy> inner_;
  Tracer& tracer_;
  int start_, arrival_, completion_, drained_, timer_, cancel_, end_;
};

// --- output checks (report.cpp) -------------------------------------------

/// Failures found by the output check, by operation.
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first few reasons, for stderr
  void fail(std::uint64_t n, std::string why);
  /// Take over another tally's failures, but not its attempts.
  void addFailures(const CheckTally& other);
};

/// Check one finished run against the trace it replayed: every job
/// finished with a sound record, bounded slowdown >= 1, utilization in
/// (0, 1], and busy processor-seconds equal to sum(runtime x procs). Jobs
/// in `cancelled` (by input id) are expected to be absent. Adds one
/// attempted operation per input job and one failure per bad job.
void checkRunStats(const sps::workload::Trace& input,
                   const sps::metrics::RunStats& stats,
                   std::uint32_t unfinished, CheckTally& tally,
                   const std::vector<bool>* cancelled = nullptr);

/// Shape of a protocol reply, by request verb.
enum class Verb { Submit, Cancel, Query, Stats, Drain };

/// Whether `reply` is a well-formed answer to a `verb` line. For submit,
/// `expectId` is the job id the stream must assign. A cancel may be
/// refused (`err cancel: ... not cancellable`); that sets *refused.
[[nodiscard]] bool replyWellFormed(Verb verb, std::string_view reply,
                                   std::uint64_t expectId, bool* refused);

/// The simulated outputs of one run, reduced to what must repeat exactly:
/// run-level figures, every obs counter, and a hash over every per-job
/// record. Two runs of one input must give equal digests.
struct RunDigest {
  std::string policyName;
  std::string traceName;
  std::uint64_t jobs = 0;
  std::uint64_t jobsHash = 0;
  double utilization = 0.0;
  double usefulUtilization = 0.0;
  double steadyUtilization = 0.0;
  sps::Time span = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t events = 0;
  sps::obs::Counters counters;
};

[[nodiscard]] RunDigest digestOf(const sps::metrics::RunStats& stats);

/// FNV-1a over raw bytes, chained through `hash`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t hash = 14695981039346656037ull);

/// Hash of a trace's jobs (every field the simulator reads).
[[nodiscard]] std::uint64_t traceHash(const sps::workload::Trace& trace);

/// Bitwise equality of two digests, with the first difference in *why.
/// With `ignoreCheckCounters` the sps::check audit counters (nonzero only
/// when the oracle is armed) are left out.
[[nodiscard]] bool sameDigest(const RunDigest& a, const RunDigest& b,
                              bool ignoreCheckCounters, std::string* why);

// --- report (report.cpp) ---------------------------------------------------

/// Metric names: a letter or digit first, then letters, digits, '_', '.',
/// '-'; at most 64 characters.
[[nodiscard]] bool validMetricName(std::string_view name);

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples = 0;  ///< percentiles: sample count behind the value
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string resultLine(bool correct, std::uint64_t attempted,
                                     std::uint64_t failed,
                                     const std::vector<Metric>& metrics);

/// Shortest round-trip decimal form of a double.
[[nodiscard]] std::string formatNumber(double value);

/// Peak resident set size of this process so far (getrusage), MiB.
[[nodiscard]] double peakRssMiB();

/// CPU model, logical CPUs, compiler, build type and flags.
[[nodiscard]] std::string hostFingerprint();

/// Empty when this build may report timings; otherwise why it may not
/// (SPS_TRACE compiled in, sanitizer, coverage, or unoptimized build).
[[nodiscard]] std::string buildRefusal();

}  // namespace pb
