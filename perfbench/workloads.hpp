// The benchmark's workloads. Each is built from a seed; the program only
// ever sees the trace, protocol script or fleet trace generated from it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check/check_config.hpp"

namespace pb {

/// Stride of the sampled audits in the oracle-armed verification pass.
inline constexpr std::uint32_t kOracleStride = 64;

/// Outputs and timings of one execution of a workload.
struct Execution {
  double setupS = 0.0;  ///< input generation + construction
  double runS = 0.0;    ///< first dispatch to the collected RunStats
  /// The run phase cut into consecutive segments: one per operation, then
  /// the rest (collection, or the federation's start before its first
  /// epoch). They cover runS but for the benchmark's own timestamps.
  std::vector<double> opNs;
  double restNs = 0.0;
  /// Process peak RSS right after the run phase, before the output check:
  /// on the first execution, the peak of running the workload once.
  double peakRssMiB = 0.0;
  std::uint64_t jobs = 0;  ///< jobs finished
  // Simulated outputs; they must repeat exactly on one seed.
  std::uint64_t inputHash = 0;
  std::uint64_t routingHash = 0;    ///< fleet routing record (fleet only)
  std::vector<RunDigest> digests;   ///< one per run (per shard on fleet)
  double utilPct = 0.0;
  double bsldMean = 0.0;
  std::uint64_t events = 0;
  sps::obs::Counters counters;
};

/// Bitwise equality of two executions' simulated outputs; names the first
/// difference in *why.
[[nodiscard]] bool sameOutputs(const Execution& a, const Execution& b,
                               bool ignoreCheckCounters, std::string* why);

/// The traced run: per-layer figures by metric name, and its outputs.
struct TracedRun {
  std::map<std::string, double> values;
  std::map<std::string, std::size_t> samples;  ///< behind each percentile
  double wallS = 0.0;  ///< the whole traced run (the bench.run span)
  Execution outputs;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one latency sample times.
  [[nodiscard]] virtual const char* operation() const = 0;
  /// Operations one execution attempts (jobs, or protocol lines).
  [[nodiscard]] virtual std::uint64_t operations() const = 0;
  /// Set-up (input generation and construction), then the run phase,
  /// untraced; outputs checked into `tally`. The timed executions leave
  /// `check` disarmed; the verification pass arms the sps::check oracle.
  virtual Execution run(CheckTally& tally,
                        const sps::check::CheckConfig& check) = 0;
  /// The same input once more, each layer timed from outside.
  virtual TracedRun traced(Tracer& tracer, CheckTally& tally) = 0;
};

/// Inputs one run of a workload replays. Near saturation the cost of an
/// input's slowest lines and its throughput depend on the seed; several
/// independent inputs per run average that out.
inline constexpr std::uint64_t kInputsPerRun = 4;

/// The kInputsPerRun inputs of a workload for `seed`, each from its own
/// seed (seed * kInputsPerRun + k, so no two seeds share one); empty for
/// an unknown name.
[[nodiscard]] std::vector<std::unique_ptr<Workload>> makeInputs(
    const std::string& name, std::uint64_t seed);

}  // namespace pb
