#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/transforms.hpp"

namespace sps::workload {

namespace {

struct Band {
  Time runLo, runHi;            // runtime in (runLo, runHi] -> log-uniform
  std::uint32_t widthLo, widthHi;  // width in [widthLo, widthHi]
};

Band bandOf(std::size_t category, const SyntheticConfig& cfg) {
  const auto r = static_cast<std::size_t>(runClassOfCategory(category));
  const auto w = static_cast<std::size_t>(widthClassOfCategory(category));
  Band b{};
  switch (r) {
    case 0: b.runLo = cfg.minRuntime - 1; b.runHi = kVeryShortMax; break;
    case 1: b.runLo = kVeryShortMax; b.runHi = kShortMax; break;
    case 2: b.runLo = kShortMax; b.runHi = kLongMax; break;
    default: b.runLo = kLongMax; b.runHi = cfg.maxRuntime; break;
  }
  // Paper-absolute cutoffs by default; proportional to the machine when
  // scaleWidthBands is set (never narrower than the paper's, so small
  // machines are unaffected even with the flag on).
  std::uint32_t narrowMax = kNarrowMax;
  std::uint32_t wideMax = kWideMax;
  if (cfg.scaleWidthBands) {
    narrowMax = std::max<std::uint32_t>(kNarrowMax, cfg.machineProcs / 16);
    wideMax = std::max<std::uint32_t>(kWideMax, cfg.machineProcs / 4);
  }
  switch (w) {
    case 0: b.widthLo = 1; b.widthHi = 1; break;
    case 1: b.widthLo = 2; b.widthHi = narrowMax; break;
    case 2: b.widthLo = narrowMax + 1; b.widthHi = wideMax; break;
    default:
      b.widthLo = wideMax + 1;
      b.widthHi = cfg.machineProcs;
      break;
  }
  return b;
}

}  // namespace

Trace generateTrace(const SyntheticConfig& cfg) {
  SPS_CHECK_MSG(cfg.machineProcs > kWideMax,
                "machine must be wider than the Wide/VeryWide boundary");
  SPS_CHECK_MSG(cfg.jobCount > 0, "jobCount must be positive");
  SPS_CHECK_MSG(cfg.offeredLoad > 0.0 && cfg.offeredLoad < 1.5,
                "offered load " << cfg.offeredLoad << " out of range");
  SPS_CHECK_MSG(cfg.minRuntime > 0 && cfg.minRuntime < kVeryShortMax,
                "minRuntime must fall inside the VS band");
  SPS_CHECK_MSG(cfg.maxRuntime > kLongMax, "maxRuntime must exceed 8 h");
  SPS_CHECK_MSG(cfg.memMinMb > 0 && cfg.memMinMb <= cfg.memMaxMb,
                "bad memory range");
  SPS_CHECK_MSG(cfg.diurnalAmplitude >= 0.0 && cfg.diurnalAmplitude < 1.0,
                "diurnal amplitude must be in [0, 1)");

  Rng master(cfg.seed);
  Rng catRng = master.fork();
  Rng runRng = master.fork();
  Rng widthRng = master.fork();
  Rng memRng = master.fork();
  Rng arrivalRng = master.fork();

  Trace trace;
  trace.name = cfg.name;
  trace.machineProcs = cfg.machineProcs;
  trace.jobs.reserve(cfg.jobCount);

  double work = 0.0;
  for (std::size_t i = 0; i < cfg.jobCount; ++i) {
    const std::size_t cat =
        catRng.weightedIndex(cfg.categoryMix.data(), cfg.categoryMix.size());
    const Band b = bandOf(cat, cfg);
    Job j;
    // Power-law on (runLo, runHi]: sample on [runLo+1, runHi].
    j.runtime = runRng.boundedParetoInt(b.runLo + 1, b.runHi,
                                        cfg.runtimeAlpha);
    j.procs = static_cast<std::uint32_t>(
        widthRng.boundedParetoInt(b.widthLo, b.widthHi, cfg.widthAlpha));
    j.estimate = j.runtime;
    j.memoryMb = static_cast<std::uint32_t>(
        memRng.uniformInt(cfg.memMinMb, cfg.memMaxMb));
    work += static_cast<double>(j.runtime) * static_cast<double>(j.procs);
    trace.jobs.push_back(j);
  }

  // Solve the Poisson rate: span T such that work / (P x T) = offeredLoad.
  const double span =
      work / (static_cast<double>(cfg.machineProcs) * cfg.offeredLoad);
  const double meanInterarrival = span / static_cast<double>(cfg.jobCount);
  if (cfg.diurnalAmplitude == 0.0) {
    double t = 0.0;
    for (Job& j : trace.jobs) {
      j.submit = static_cast<Time>(std::llround(t));
      t += arrivalRng.exponential(meanInterarrival);
    }
  } else {
    // Thinning (Lewis-Shedler): propose at the peak rate, accept with
    // probability rate(t)/peak. The modulation averages out, so the mean
    // rate — and hence the offered load — matches the homogeneous case.
    const double amplitude = cfg.diurnalAmplitude;
    const double peakMeanInterarrival = meanInterarrival / (1.0 + amplitude);
    double t = 0.0;
    for (Job& j : trace.jobs) {
      j.submit = static_cast<Time>(std::llround(t));
      for (;;) {
        t += arrivalRng.exponential(peakMeanInterarrival);
        const double rate =
            1.0 + amplitude * std::sin(2.0 * 3.141592653589793 * t /
                                       static_cast<double>(kDay));
        if (arrivalRng.uniform01() * (1.0 + amplitude) <= rate) break;
      }
    }
  }

  normalizeTrace(trace);
  validateTrace(trace);
  return trace;
}

namespace {
/// Table II (CTC) row-major: rows VS,S,L,VL x cols Seq,N,W,VW, percent.
constexpr std::array<double, kNumCategories16> kCtcMix = {
    14, 8, 13, 9,   // VS
    18, 4, 6, 2,    // S
    6, 3, 9, 2,     // L
    2, 2, 1, 1,     // VL
};
/// Table III (SDSC).
constexpr std::array<double, kNumCategories16> kSdscMix = {
    8, 29, 9, 4,    // VS
    2, 8, 5, 3,     // S
    8, 5, 6, 1,     // L
    3, 5, 3, 1,     // VL
};
}  // namespace

SyntheticConfig ctcConfig(std::size_t jobCount, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.name = "CTC-synth";
  cfg.machineProcs = 430;
  cfg.jobCount = jobCount;
  cfg.seed = seed;
  cfg.categoryMix = kCtcMix;
  cfg.offeredLoad = 0.60;
  cfg.widthAlpha = 3.0;
  return cfg;
}

SyntheticConfig sdscConfig(std::size_t jobCount, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.name = "SDSC-synth";
  cfg.machineProcs = 128;
  cfg.jobCount = jobCount;
  cfg.seed = seed + 1;
  cfg.categoryMix = kSdscMix;
  cfg.offeredLoad = 0.68;
  cfg.widthAlpha = 3.2;
  return cfg;
}

SyntheticConfig kthConfig(std::size_t jobCount, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.name = "KTH-synth";
  cfg.machineProcs = 100;
  cfg.jobCount = jobCount;
  cfg.seed = seed + 2;
  cfg.categoryMix = kSdscMix;  // mix not published; see DESIGN.md
  cfg.offeredLoad = 0.65;
  cfg.widthAlpha = 3.0;
  return cfg;
}

Trace generateFleetTrace(const SyntheticConfig& cluster,
                         std::uint32_t clusters) {
  SPS_CHECK_MSG(clusters >= 1, "a fleet needs at least one cluster");
  // One generator pass at the per-cluster offered load produces the right
  // job population; compressing the arrivals by the cluster count then
  // multiplies the offered load by `clusters`, so a federation that splits
  // the stream across `clusters` machines sees the configured load on each
  // — without ever tripping the single-machine load ceiling inside
  // generateTrace. scaleLoad divides every submit by the same factor
  // (monotone), so job order, ids, and all sampled shapes are untouched;
  // at clusters == 1 the jobs are bit-identical to generateTrace's.
  Trace fleet = generateTrace(cluster);
  if (clusters > 1) fleet = scaleLoad(fleet, static_cast<double>(clusters));
  fleet.name = cluster.name + "-fleet" + std::to_string(clusters) + "x";
  return fleet;
}

SyntheticConfig scaledToMachine(SyntheticConfig cfg,
                                std::uint32_t machineProcs) {
  SPS_CHECK_MSG(machineProcs > kWideMax,
                "machine must be wider than the Wide/VeryWide boundary");
  cfg.name += '@';
  cfg.name += std::to_string(machineProcs);
  cfg.machineProcs = machineProcs;
  cfg.scaleWidthBands = true;
  return cfg;
}

}  // namespace sps::workload
