#include "check/diff_harness.hpp"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/invariants.hpp"
#include "core/experiment.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"

namespace sps::check {

namespace {

std::string describeTransition(const std::tuple<Time, JobId, int, int>& t) {
  std::ostringstream os;
  os << "t=" << std::get<0>(t) << " job=" << std::get<1>(t) << " "
     << std::get<2>(t) << "->" << std::get<3>(t);
  return os.str();
}

std::string diffRecords(const RunRecord& a, const RunRecord& b,
                        const char* lhs = "production",
                        const char* rhs = "reference") {
  const std::size_t n = std::min(a.transitions.size(),
                                 b.transitions.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.transitions[i] == b.transitions[i]) continue;
    std::ostringstream os;
    os << "schedules diverge at transition " << i << ": " << lhs << " ("
       << describeTransition(a.transitions[i]) << ") vs " << rhs << " ("
       << describeTransition(b.transitions[i]) << ")";
    return os.str();
  }
  if (a.transitions.size() != b.transitions.size()) {
    std::ostringstream os;
    os << "transition counts differ: " << lhs << " " << a.transitions.size()
       << " vs " << rhs << " " << b.transitions.size();
    return os.str();
  }
  for (std::size_t id = 0; id < a.firstStart.size(); ++id) {
    if (a.firstStart[id] != b.firstStart[id] ||
        a.finish[id] != b.finish[id] ||
        a.suspendCount[id] != b.suspendCount[id]) {
      std::ostringstream os;
      os << "per-job records diverge for job " << id << ": " << lhs
         << " (start " << a.firstStart[id] << ", finish " << a.finish[id]
         << ", " << a.suspendCount[id] << " suspensions) vs " << rhs
         << " (start " << b.firstStart[id] << ", finish " << b.finish[id]
         << ", " << b.suspendCount[id] << " suspensions)";
      return os.str();
    }
  }
  return "";
}

// --- workload shapes -------------------------------------------------------

workload::Job makeJob(Time submit, Time runtime, std::uint32_t procs,
                      std::uint32_t memoryMb) {
  workload::Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.estimate = runtime;
  j.procs = procs;
  j.memoryMb = memoryMb;
  return j;
}

/// SyntheticTraceGenerator concentrated on a few corner categories.
/// generateTrace requires machineProcs > 32 (the VeryWide band needs room),
/// so this shape runs on the larger machines.
workload::Trace cornerSynthetic(Rng& rng, std::size_t jobs) {
  // The paper-scale machines plus two scale-out sizes that force ProcSet's
  // windowed large-set mode (procs >= 1024) through every policy in both
  // lanes.
  static constexpr std::uint32_t kMachines[] = {64,   100,  128,
                                                430,  4096, 65'536};
  workload::SyntheticConfig cfg;
  cfg.name = "fuzz-corner";
  cfg.machineProcs = kMachines[rng.uniformInt(0, 5)];
  // Scale the width bands with the machine past the inline boundary so the
  // big configs exercise wide-window sets instead of 99% VeryWide jobs.
  cfg.scaleWidthBands = cfg.machineProcs > 1024;
  cfg.jobCount = jobs;
  cfg.seed = rng.next();
  const int corners = static_cast<int>(rng.uniformInt(1, 3));
  for (int k = 0; k < corners; ++k)
    cfg.categoryMix[static_cast<std::size_t>(rng.uniformInt(0, 15))] = 1.0;
  cfg.offeredLoad = rng.uniform(0.5, 1.4);
  cfg.widthAlpha = rng.uniform(1.0, 3.2);
  cfg.minRuntime = 1;
  // generateTrace needs the Long band non-empty (maxRuntime > 8 h); vary
  // the tail so short-heavy and long-heavy category mixes both occur.
  cfg.maxRuntime = kHour * rng.uniformInt(9, 48);
  if (rng.uniform01() < 0.3) cfg.diurnalAmplitude = rng.uniform(0.3, 0.9);
  return workload::generateTrace(cfg);
}

/// Same-instant arrival bursts on a (usually tiny) machine.
workload::Trace burstTrace(Rng& rng, std::uint32_t machineProcs,
                           std::size_t jobs) {
  workload::Trace trace;
  trace.name = "fuzz-burst";
  trace.machineProcs = machineProcs;
  Time now = 0;
  while (trace.jobs.size() < jobs) {
    const auto burst = static_cast<std::size_t>(rng.uniformInt(1, 12));
    for (std::size_t k = 0; k < burst && trace.jobs.size() < jobs; ++k) {
      const Time runtime = rng.logUniformInt(1, 2 * kHour);
      std::uint32_t procs;
      const double p = rng.uniform01();
      if (p < 0.3) {
        procs = 1;
      } else if (p < 0.5) {
        procs = machineProcs;  // full-width: serializes the whole machine
      } else {
        procs = static_cast<std::uint32_t>(rng.uniformInt(1, machineProcs));
      }
      const auto mem = static_cast<std::uint32_t>(rng.uniformInt(0, 1024));
      trace.jobs.push_back(makeJob(now, runtime, procs, mem));
    }
    // Most bursts land on the same instant as the next one; the rest leave
    // a gap up to two hours.
    if (rng.uniform01() >= 0.3)
      now += rng.logUniformInt(1, 2 * kHour);
  }
  return trace;
}

/// Alternating full-width long jobs and narrow shorts with tight arrivals —
/// the shape that maximizes preemption pressure and backfill churn.
workload::Trace widthStorm(Rng& rng, std::uint32_t machineProcs,
                           std::size_t jobs) {
  workload::Trace trace;
  trace.name = "fuzz-widths";
  trace.machineProcs = machineProcs;
  Time now = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::Job j;
    if (i % 7 == 0) {
      j = makeJob(now, rng.logUniformInt(30 * kMinute, 4 * kHour),
                  machineProcs,
                  static_cast<std::uint32_t>(rng.uniformInt(100, 1024)));
    } else {
      const auto half = std::max<std::uint32_t>(1, machineProcs / 2);
      j = makeJob(now, rng.logUniformInt(1, 20 * kMinute),
                  static_cast<std::uint32_t>(rng.uniformInt(1, half)),
                  static_cast<std::uint32_t>(rng.uniformInt(0, 512)));
    }
    trace.jobs.push_back(j);
    now += rng.uniformInt(0, 10 * kMinute);
  }
  return trace;
}

/// Estimate regimes from exact through pathological overestimates.
void stampEstimates(Rng& rng, workload::Trace& trace) {
  const double p = rng.uniform01();
  if (p < 0.3) return;  // accurate: estimate == runtime, as generated
  if (p < 0.6) {
    workload::EstimateModelConfig cfg;
    cfg.kind = workload::EstimateModelKind::Modal;
    cfg.seed = rng.next();
    workload::applyEstimates(trace, cfg);
  } else if (p < 0.8) {
    workload::EstimateModelConfig cfg;
    cfg.kind = workload::EstimateModelKind::UniformFactor;
    cfg.seed = rng.next();
    cfg.maxFactor = rng.uniform(2.0, 100.0);
    workload::applyEstimates(trace, cfg);
  } else {
    // Pathological: every estimate wildly over, a fixed huge factor per
    // job — the regime where belief-based profiles are most wrong.
    for (workload::Job& j : trace.jobs)
      j.estimate = j.runtime * rng.uniformInt(10, 1000);
  }
}

}  // namespace

core::PolicySpec policyFromToken(const std::string& token) {
  // The shared registry parses; harness callers expect InputError.
  try {
    return sched::specFromToken(token);
  } catch (const std::invalid_argument& e) {
    throw InputError(e.what());
  }
}

std::vector<std::string> fuzzPolicyTokens() {
  return sched::knownPolicyTokens();
}

core::PolicySpec resolveCaseSpec(const FuzzCase& c) {
  core::PolicySpec spec = policyFromToken(c.policyToken);
  if (c.policyToken.rfind("tss:", 0) == 0)
    spec.ss.tssLimits = core::bootstrapTssLimits(c.trace);
  return spec;
}

workload::Trace makeFuzzTrace(std::uint64_t seed) {
  Rng rng(seed);
  static constexpr std::uint32_t kTinyMachines[] = {2, 3, 5, 8, 13, 32, 100};
  const auto machineProcs =
      kTinyMachines[rng.uniformInt(0, 6)];
  const auto jobs = static_cast<std::size_t>(rng.uniformInt(20, 120));
  workload::Trace trace;
  switch (rng.uniformInt(0, 2)) {
    case 0: trace = cornerSynthetic(rng, jobs); break;
    case 1: trace = burstTrace(rng, machineProcs, jobs); break;
    default: trace = widthStorm(rng, machineProcs, jobs); break;
  }
  stampEstimates(rng, trace);
  workload::normalizeTrace(trace);
  workload::validateTrace(trace);
  return trace;
}

FuzzCase makeFuzzCase(std::uint64_t seed, std::string token) {
  SplitMix64 mix(seed);
  FuzzCase c;
  c.policyToken = std::move(token);
  const std::uint64_t traceSeed = mix.next();
  c.overhead = (mix.next() & 1) != 0;
  c.trace = makeFuzzTrace(traceSeed);
  return c;
}

namespace {

/// Shared body of runOnce/runStreamed: construct (batch or streaming),
/// arm the oracle and the transition recorder, run `drive`, harvest.
template <typename Drive>
RunRecord runRecorded(const CheckConfig& checks, const FuzzCase& c,
                      Lane lane, bool streamed, Drive&& drive,
                      std::string* violation) {
  const auto policy = lanePolicy(resolveCaseSpec(c), lane);
  std::optional<sched::DiskSwapOverhead> overhead;
  sim::Simulator::Config config;
  if (c.overhead) {
    // Per-job costs are precomputed by id from the original trace; the
    // streamed lane assigns identical ids (stream order == trace order).
    overhead.emplace(c.trace);
    config.overhead = &*overhead;
  }
  std::optional<sim::Simulator> simulator;
  if (streamed)
    simulator.emplace(c.trace.name, c.trace.machineProcs, *policy, config);
  else
    simulator.emplace(c.trace, *policy, config);
  InvariantChecker checker(checks);
  checker.arm(*simulator, *policy);
  RunRecord record;
  simulator->observers().onStateChange(
      [&record](const sim::Simulator& s, JobId id, sim::JobState from,
                sim::JobState to) {
        record.transitions.emplace_back(s.now(), id, static_cast<int>(from),
                                        static_cast<int>(to));
      });
  try {
    drive(*simulator);
    checker.finalize(*simulator);
  } catch (const InvariantError& e) {
    if (violation != nullptr) *violation = e.what();
    return record;
  }
  for (JobId id = 0; id < c.trace.jobs.size(); ++id) {
    record.firstStart.push_back(simulator->exec(id).firstStart);
    record.finish.push_back(simulator->exec(id).finish);
    record.suspendCount.push_back(simulator->exec(id).suspendCount);
  }
  return record;
}

}  // namespace

RunRecord DiffHarness::runOnce(const FuzzCase& c, Lane lane,
                               std::string* violation) const {
  return runRecorded(
      checks_, c, lane, /*streamed=*/false,
      [](sim::Simulator& simulator) { simulator.run(); }, violation);
}

RunRecord DiffHarness::runStreamed(const FuzzCase& c, Lane lane,
                                   std::uint64_t seed,
                                   std::string* violation) const {
  return runRecorded(
      checks_, c, lane, /*streamed=*/true,
      [&c, seed](sim::Simulator& simulator) {
        // Seeded coarse chopping: submit the trace in blocks of 1..8 jobs.
        // Usually advance under minimum lookahead first (to the instant
        // before the block's first submit); sometimes stay put, so a block
        // lands while the simulator lags several events behind — both leave
        // multiple future arrivals pending in the event queue, which the
        // per-job pump never does.
        Rng rng(seed);
        const auto& jobs = c.trace.jobs;
        std::size_t i = 0;
        while (i < jobs.size()) {
          const auto seg = std::min<std::size_t>(
              jobs.size() - i,
              static_cast<std::size_t>(rng.uniformInt(1, 8)));
          if (rng.uniform01() < 0.7)
            simulator.runUntil(jobs[i].submit - 1);
          for (std::size_t k = 0; k < seg; ++k) simulator.submit(jobs[i + k]);
          i += seg;
        }
        simulator.drain();
      },
      violation);
}

DiffOutcome DiffHarness::diffStreamed(const FuzzCase& c,
                                      std::uint64_t seed) const {
  DiffOutcome out;
  for (const Lane lane : {Lane::Production, Lane::Reference}) {
    const std::string name = laneName(lane);
    std::string violation;
    const RunRecord batch = runOnce(c, lane, &violation);
    if (!violation.empty()) {
      out.violation = "[batch/" + name + "] " + violation;
      return out;
    }
    const RunRecord streamed = runStreamed(c, lane, seed, &violation);
    if (!violation.empty()) {
      out.violation = "[streamed/" + name + "] " + violation;
      return out;
    }
    out.divergence = diffRecords(streamed, batch, "streamed", "batch");
    if (!out.divergence.empty()) {
      out.divergence.insert(0, "[" + name + "] ");
      return out;
    }
  }
  return out;
}

DiffOutcome DiffHarness::diff(const FuzzCase& c) const {
  DiffOutcome out;
  std::string violation;
  const RunRecord production = runOnce(c, Lane::Production, &violation);
  if (!violation.empty()) {
    out.violation = "[production] " + violation;
    return out;
  }
  const RunRecord reference = runOnce(c, Lane::Reference, &violation);
  if (!violation.empty()) {
    out.violation = "[reference] " + violation;
    return out;
  }
  out.divergence = diffRecords(production, reference);
  return out;
}

FuzzCase DiffHarness::shrink(const FuzzCase& c, std::size_t maxRuns) const {
  return shrinkWith(
      c, [this](const FuzzCase& candidate) { return !diff(candidate).ok(); },
      maxRuns);
}

FuzzCase DiffHarness::shrinkWith(
    const FuzzCase& c,
    const std::function<bool(const FuzzCase&)>& stillFails,
    std::size_t maxRuns) {
  FuzzCase best = c;
  std::size_t runs = 0;
  bool improved = true;
  // Delta-debugging lite: try dropping ever-smaller chunks; accept any
  // removal that keeps the case failing, restart from large chunks after
  // progress. Bounded by maxRuns oracle evaluations.
  while (improved && best.trace.jobs.size() > 1 && runs < maxRuns) {
    improved = false;
    for (std::size_t chunk = best.trace.jobs.size() / 2;
         chunk >= 1 && runs < maxRuns; chunk /= 2) {
      for (std::size_t start = 0;
           start + chunk <= best.trace.jobs.size() && runs < maxRuns;) {
        FuzzCase candidate = best;
        auto& js = candidate.trace.jobs;
        js.erase(js.begin() + static_cast<std::ptrdiff_t>(start),
                 js.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        workload::normalizeTrace(candidate.trace);
        ++runs;
        if (stillFails(candidate)) {
          best = std::move(candidate);
          improved = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return best;
}

void writeRepro(std::ostream& os, const FuzzCase& c) {
  os << "sps-repro 1\n";
  os << "policy " << c.policyToken << "\n";
  os << "overhead " << (c.overhead ? 1 : 0) << "\n";
  os << "machine " << c.trace.machineProcs << "\n";
  if (c.fedShards > 0) {
    // Federated lane directives (absent on single-cluster repros, so every
    // pre-federation corpus file still parses unchanged).
    os << "shards " << c.fedShards << "\n";
    os << "router " << c.fedRouter << "\n";
    os << "delay " << c.fedDelay << "\n";
  }
  os << "# job <submit> <runtime> <estimate> <procs> <memoryMb>\n";
  for (const workload::Job& j : c.trace.jobs)
    os << "job " << j.submit << " " << j.runtime << " " << j.estimate << " "
       << j.procs << " " << j.memoryMb << "\n";
}

FuzzCase readRepro(std::istream& is) {
  FuzzCase c;
  c.trace.name = "repro";
  std::string line;
  bool sawHeader = false;
  bool sawPolicy = false;
  std::size_t lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (!sawHeader) {
      int version = 0;
      if (key != "sps-repro" || !(fields >> version) || version != 1)
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": expected header 'sps-repro 1'");
      sawHeader = true;
      continue;
    }
    if (key == "policy") {
      if (!(fields >> c.policyToken))
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": policy token missing");
      sawPolicy = true;
    } else if (key == "overhead") {
      int flag = 0;
      if (!(fields >> flag) || (flag != 0 && flag != 1))
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": overhead must be 0 or 1");
      c.overhead = flag == 1;
    } else if (key == "machine") {
      if (!(fields >> c.trace.machineProcs) || c.trace.machineProcs == 0)
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": bad machine size");
    } else if (key == "shards") {
      if (!(fields >> c.fedShards) || c.fedShards == 0)
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": shards must be >= 1");
    } else if (key == "router") {
      if (!(fields >> c.fedRouter))
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": router token missing");
    } else if (key == "delay") {
      if (!(fields >> c.fedDelay) || c.fedDelay < 0)
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": delay must be non-negative");
    } else if (key == "job") {
      workload::Job j;
      if (!(fields >> j.submit >> j.runtime >> j.estimate >> j.procs >>
            j.memoryMb))
        throw InputError("repro line " + std::to_string(lineNo) +
                         ": bad job record");
      c.trace.jobs.push_back(j);
    } else {
      throw InputError("repro line " + std::to_string(lineNo) +
                       ": unknown directive '" + key + "'");
    }
  }
  if (!sawHeader) throw InputError("repro: missing 'sps-repro 1' header");
  if (!sawPolicy) throw InputError("repro: missing policy line");
  if (c.trace.jobs.empty()) throw InputError("repro: no jobs");
  (void)policyFromToken(c.policyToken);  // validate the token eagerly
  workload::normalizeTrace(c.trace);
  workload::validateTrace(c.trace);
  return c;
}

}  // namespace sps::check
