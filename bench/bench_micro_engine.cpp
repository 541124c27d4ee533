// google-benchmark microbenchmarks of the discrete-event engine (whole-
// simulation throughput), plus the scheduling-kernel sweep: every
// backfilling and preemptive policy on a high-load SDSC trace, once as the
// production class ("incremental") and once as its check::referencePolicy
// ("reference": the per-event-reconstruction oracle), with events/sec and
// wall time written to BENCH_engine.json. Every timed lane records the
// fastest, median and slowest of its repeats ("repeatWallSeconds"); events/s
// is taken from the fastest. The per-policy speedup column is production
// against its reference. A scaling lane replays easy and fcfs at 50k /
// 200k / 800k jobs and records the cost per event at each size, for the
// event loop alone and for the whole run (harness construction, run() and
// finish()); tools/perf_guard.py fails a report whose largest size costs
// more than 1.2x its smallest per event on either. A "host" block (CPU
// model, nproc, compiler, build type) records where the numbers were taken;
// perf_guard.py prints both reports' hosts beside any lane it flags.
//
// `ctest -L perf-smoke` (the golden-equivalence suite) is the gate that
// makes these speedups meaningful: both lanes produce bit-identical
// schedules, so the comparison is pure engine cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "check/check_config.hpp"
#include "check/reference/reference_policy.hpp"
#include "core/scheduler_service.hpp"
#include "core/simulation.hpp"
#include "fed/federation.hpp"
#include "fed/router.hpp"
#include "metrics/json.hpp"
#include "obs/trace.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace sps;

template <core::PolicyKind Kind>
void BM_Simulation(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto trace = workload::generateTrace(workload::sdscConfig(jobs, 7));
  core::PolicySpec spec;
  spec.kind = Kind;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::runSimulation(trace, spec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_Simulation<core::PolicyKind::Fcfs>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::Conservative>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::Easy>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::SelectiveSuspension>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::ImmediateService>)->Arg(2000);

// --- scheduling-kernel sweep -----------------------------------------------

/// Wall seconds of every repeat of one lane.
class Repeats {
 public:
  void add(double wall) { walls_.push_back(wall); }
  [[nodiscard]] double min() const {
    return *std::min_element(walls_.begin(), walls_.end());
  }
  [[nodiscard]] double max() const {
    return *std::max_element(walls_.begin(), walls_.end());
  }
  /// Middle repeat (mean of the middle two for an even count).
  [[nodiscard]] double median() const {
    std::vector<double> sorted(walls_);
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
  }
  /// "repeatWallSeconds": {"min", "median", "max", "count"}.
  void write(metrics::JsonWriter& w) const {
    w.key("repeatWallSeconds").beginObject();
    w.field("min", min());
    w.field("median", median());
    w.field("max", max());
    w.field("count", static_cast<std::uint64_t>(walls_.size()));
    w.endObject();
  }

 private:
  std::vector<double> walls_;
};

struct Lane {
  double wallSeconds = 0.0;  ///< fastest repeat
  double eventsPerSec = 0.0;  ///< at the fastest repeat
  std::uint64_t events = 0;
  obs::Counters counters;  ///< identical across repeats (deterministic)
  Repeats repeats;

  void record(double wall, std::uint64_t eventCount) {
    repeats.add(wall);
    wallSeconds = repeats.min();
    events = eventCount;
    eventsPerSec = static_cast<double>(events) / wallSeconds;
  }
  /// wallSeconds, eventsPerSec, events and the repeat spread.
  void writeTiming(metrics::JsonWriter& w) const {
    w.field("wallSeconds", wallSeconds);
    w.field("eventsPerSec", eventsPerSec);
    w.field("events", events);
    repeats.write(w);
  }
};

Lane timeLane(const workload::Trace& trace, const core::PolicySpec& spec,
              int repeats, const core::SimulationOptions& options = {},
              check::Lane lane = check::Lane::Production) {
  Lane timed;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const metrics::RunStats stats =
        core::runSimulation(trace, check::lanePolicy(spec, lane), options);
    const auto t1 = std::chrono::steady_clock::now();
    timed.record(std::chrono::duration<double>(t1 - t0).count(),
                 stats.eventsProcessed);
    timed.counters = stats.counters;
  }
  return timed;
}

/// CPU model from /proc/cpuinfo ("unknown" where it is not readable).
std::string cpuModel() {
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

/// The report's "host" block: what a wall-clock number depends on beyond
/// the code, so a comparison across hosts can be told from a regression.
void writeHost(metrics::JsonWriter& w) {
  w.key("host").beginObject();
  w.field("cpuModel", cpuModel());
  w.field("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("compiler", SPS_BENCH_COMPILER);
  w.field("buildType", std::string_view(SPS_BENCH_BUILD_TYPE).empty()
                           ? "unspecified"
                           : SPS_BENCH_BUILD_TYPE);
  w.endObject();
}

std::size_t sweepJobs() {
  if (const char* env = std::getenv("SPS_BENCH_JOBS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 8000;
}

void runKernelSweep() {
  if (obs::kTraceCompiledIn) {
    // A -DSPS_TRACE=ON build carries per-event trace branches in the hot
    // path; numbers from it are not comparable to (and must not overwrite)
    // the reference BENCH_engine.json. Counters alone are part of the
    // measured configuration and stay in.
    std::cout << "kernel sweep: skipped — tracing compiled in "
                 "(SPS_TRACE=ON); refusing to write BENCH_engine.json\n";
    return;
  }
  const std::size_t jobs = sweepJobs();
  const int repeats = 3;
  // High-load SDSC: the regime where the availability profile is largest
  // (long queues, deep reservation sets) and per-event rebuilds hurt most.
  auto config = workload::sdscConfig(jobs, 42);
  config.offeredLoad = 0.95;
  const auto trace = workload::generateTrace(config);

  std::vector<std::pair<const char*, core::PolicySpec>> policies;
  core::PolicySpec spec;
  // FCFS uses no kernel structures; its lane measures the raw event-engine
  // floor the other speedups are bounded by.
  spec = {};
  spec.kind = core::PolicyKind::Fcfs;
  policies.emplace_back("fcfs", spec);
  spec = {};
  spec.kind = core::PolicyKind::Conservative;
  policies.emplace_back("conservative", spec);
  spec = {};
  spec.kind = core::PolicyKind::Easy;
  policies.emplace_back("easy", spec);
  spec = {};
  spec.kind = core::PolicyKind::Easy;
  spec.easy.order = sched::QueueOrder::ShortestFirst;
  policies.emplace_back("sjf-bf", spec);
  spec = {};
  spec.kind = core::PolicyKind::DepthBackfill;
  spec.depth.depth = sched::kUnlimitedDepth;
  policies.emplace_back("depth-inf", spec);
  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  policies.emplace_back("ss", spec);
  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.tssOnlineMultiplier = 1.5;
  policies.emplace_back("tss-online", spec);
  spec = {};
  spec.kind = core::PolicyKind::ImmediateService;
  policies.emplace_back("is", spec);

  std::ofstream out("BENCH_engine.json");
  metrics::JsonWriter w(out);
  w.beginObject();
  w.field("bench", "engine_kernel_sweep");
  writeHost(w);
  w.key("trace").beginObject();
  w.field("kind", "sdsc");
  w.field("jobs", static_cast<std::uint64_t>(jobs));
  w.field("seed", static_cast<std::uint64_t>(42));
  w.field("offeredLoad", config.offeredLoad);
  w.endObject();
  w.field("repeats", static_cast<std::int64_t>(repeats));
  w.key("policies").beginArray();

  std::cout << "kernel sweep: sdsc jobs=" << jobs
            << " load=" << config.offeredLoad << " (best of " << repeats
            << ")\n";
  // The sps::check oracle lane: everything armed at the default stride.
  // Its overhead vs the unchecked incremental lane is the cost of --check.
  core::SimulationOptions checked;
  checked.check = check::CheckConfig::all();
  // The telemetry lane: timeline sampling at the default stride on the
  // incremental kernel. Its overhead vs the plain incremental lane is the
  // cost of --timeline; the acceptance bound is <= 5%.
  core::SimulationOptions sampled;
  sampled.timeline.enabled = true;
  for (const auto& [label, policySpec] : policies) {
    const Lane ref =
        timeLane(trace, policySpec, repeats, {}, check::Lane::Reference);
    const Lane inc = timeLane(trace, policySpec, repeats);
    const Lane chk = timeLane(trace, policySpec, repeats, checked);
    const Lane tl = timeLane(trace, policySpec, repeats, sampled);
    const double speedup = inc.eventsPerSec / ref.eventsPerSec;
    const double checkOverhead = inc.eventsPerSec / chk.eventsPerSec;
    const double timelineOverhead = inc.eventsPerSec / tl.eventsPerSec;
    w.beginObject();
    w.field("policy", label);
    w.key("reference").beginObject();
    ref.writeTiming(w);
    w.key("counters");
    metrics::writeCountersJson(w, ref.counters);
    w.endObject();
    w.key("incremental").beginObject();
    inc.writeTiming(w);
    w.key("counters");
    metrics::writeCountersJson(w, inc.counters);
    w.endObject();
    w.key("checked").beginObject();
    chk.writeTiming(w);
    w.field("auditStride",
            static_cast<std::uint64_t>(checked.check.auditStride));
    w.field("overheadFactor", checkOverhead);
    w.endObject();
    w.key("timeline").beginObject();
    tl.writeTiming(w);
    w.field("samples", tl.counters.value(obs::Counter::TimelineSamples));
    w.field("decimations",
            tl.counters.value(obs::Counter::TimelineDecimations));
    w.field("overheadFactor", timelineOverhead);
    w.endObject();
    w.field("speedup", speedup);
    w.endObject();
    std::cout << "  " << label << ": reference " << ref.eventsPerSec
              << " ev/s, incremental " << inc.eventsPerSec << " ev/s ("
              << speedup << "x), checked " << chk.eventsPerSec << " ev/s ("
              << checkOverhead << "x overhead), timeline " << tl.eventsPerSec
              << " ev/s (" << timelineOverhead << "x overhead)\n";
  }
  // Large-machine lanes: the scale-out configurations ROADMAP item 2 asks
  // for, riding the same policies array so perf_guard covers them like any
  // other lane. SDSC mix re-targeted at 16k and 100k processors (width
  // bands scale proportionally); fewer jobs than the paper-scale sweep so
  // the sweep's wall time stays bounded — events/s is per-lane comparable
  // against its own baseline, which is all the guard checks.
  struct BigLane {
    const char* label;
    std::uint32_t procs;
  };
  constexpr BigLane bigLanes[] = {{"16k", 16'384}, {"100k", 100'000}};
  for (const BigLane& big : bigLanes) {
    auto bigConfig =
        workload::scaledToMachine(workload::sdscConfig(jobs / 2, 42),
                                  big.procs);
    bigConfig.offeredLoad = 0.95;
    const auto bigTrace = workload::generateTrace(bigConfig);
    for (const char* policyLabel : {"fcfs", "ss"}) {
      core::PolicySpec bigSpec;
      bigSpec.kind = policyLabel[0] == 'f'
                         ? core::PolicyKind::Fcfs
                         : core::PolicyKind::SelectiveSuspension;
      const Lane inc = timeLane(bigTrace, bigSpec, repeats);
      const std::string label = std::string(policyLabel) + "@" + big.label;
      w.beginObject();
      w.field("policy", label);
      w.field("lane", "large-machine");
      w.field("machineProcs", static_cast<std::uint64_t>(big.procs));
      w.field("jobs", static_cast<std::uint64_t>(bigTrace.jobs.size()));
      w.key("incremental").beginObject();
      inc.writeTiming(w);
      w.endObject();
      w.endObject();
      std::cout << "  " << label << ": incremental " << inc.eventsPerSec
                << " ev/s (" << bigTrace.jobs.size() << " jobs, "
                << big.procs << " procs)\n";
    }
  }
  // Scaling lane: the same high-load SDSC replay at 50k / 200k / 800k jobs
  // (scaled by SPS_BENCH_JOBS / 8000 like every other lane). The cost per
  // dispatched event must stay flat as the trace grows; perf_guard compares
  // the largest size against the smallest within this one report, so host
  // speed cancels out of the ratio. nsPerEvent times the event loop alone
  // (Simulator::run on a constructed harness); wholeRunNsPerEvent times the
  // whole run — harness construction, run() and finish() (metrics
  // collection) — and is held to the same limit, so a per-job cost outside
  // the loop that grows faster than the trace shows as well.
  // The sizes are interleaved — each repeat round runs every size once —
  // so a stretch of host contention slows all sizes alike instead of
  // skewing the ratio; each size keeps its fastest of kScalingRepeats.
  // Every repeat starts from a trimmed heap, so each size first-touches the
  // pages of its own arrays, as a one-shot run in a fresh process does.
  // Untrimmed, a small size reuses pages the previous repeat left mapped
  // while a large one (whose frees cross glibc's trim threshold) maps fresh
  // ones, and the ratio would compare a warm small run with a cold large one.
  constexpr int kScalingRepeats = 5;
  for (const char* policyLabel : {"easy", "fcfs"}) {
    core::PolicySpec scaleSpec;
    scaleSpec.kind = policyLabel[0] == 'e' ? core::PolicyKind::Easy
                                           : core::PolicyKind::Fcfs;
    struct Size {
      workload::Trace trace;
      Lane loop;   // Simulator::run only
      Lane whole;  // construction + run() + finish()
    };
    std::vector<Size> sizes;
    for (const std::size_t base : {50'000u, 200'000u, 800'000u}) {
      auto scaleConfig = workload::sdscConfig(
          std::max<std::size_t>(1, base * jobs / 8000), 42);
      scaleConfig.offeredLoad = 0.95;
      sizes.push_back({workload::generateTrace(scaleConfig), {}, {}});
    }
    for (int r = 0; r < kScalingRepeats; ++r) {
      for (Size& size : sizes) {
#if defined(__GLIBC__)
        malloc_trim(0);
#endif
        const auto t0 = std::chrono::steady_clock::now();
        core::SimulationHarness harness(size.trace, scaleSpec, {});
        const auto t1 = std::chrono::steady_clock::now();
        harness.simulator().run();
        const auto t2 = std::chrono::steady_clock::now();
        const std::uint64_t events = harness.finish().eventsProcessed;
        const auto t3 = std::chrono::steady_clock::now();
        size.loop.record(std::chrono::duration<double>(t2 - t1).count(),
                         events);
        size.whole.record(std::chrono::duration<double>(t3 - t0).count(),
                          events);
      }
    }
    for (const Size& size : sizes) {
      const std::size_t scaleJobs = size.trace.jobs.size();
      const auto events = static_cast<double>(size.loop.events);
      const double nsPerEvent = size.loop.wallSeconds * 1e9 / events;
      const double wholeRunNsPerEvent = size.whole.wallSeconds * 1e9 / events;
      const std::string label = std::string(policyLabel) + "@" +
                                std::to_string(scaleJobs / 1000) + "k";
      w.beginObject();
      w.field("policy", label);
      w.field("lane", "scaling");
      w.field("scalingPolicy", policyLabel);
      w.field("jobs", static_cast<std::uint64_t>(scaleJobs));
      w.key("incremental").beginObject();
      size.loop.writeTiming(w);
      w.endObject();
      w.key("wholeRun").beginObject();
      size.whole.writeTiming(w);
      w.endObject();
      w.field("nsPerEvent", nsPerEvent);
      w.field("wholeRunNsPerEvent", wholeRunNsPerEvent);
      w.endObject();
      std::cout << "  " << label << ": " << nsPerEvent
                << " ns/event in the loop, " << wholeRunNsPerEvent
                << " ns/event whole run (" << size.loop.events
                << " events)\n";
    }
  }
  // Service-ingest lane: the same sweep trace pushed through the
  // SchedulerService line protocol (parse + bounded-lookahead advance +
  // streamed submit) instead of a pre-built Trace, pricing the online
  // scheduler-service mode end to end. Golden equivalence guarantees the
  // schedule is bit-identical to the batch lanes, so the gap to the `easy`
  // incremental lane is pure ingest-boundary cost. Rides the policies
  // array so perf_guard prices it like any other lane.
  {
    std::string script;
    script.reserve(trace.jobs.size() * 32);
    for (const workload::Job& job : trace.jobs) {
      script += "submit " + std::to_string(job.submit) + ' ' +
                std::to_string(job.procs) + ' ' + std::to_string(job.runtime) +
                ' ' + std::to_string(job.estimate) + ' ' +
                std::to_string(job.memoryMb) + '\n';
    }
    script += "drain\n";
    Lane lane;
    for (int r = 0; r < repeats; ++r) {
      core::ServiceConfig cfg;
      cfg.traceName = "service-ingest";
      cfg.machineProcs = trace.machineProcs;
      cfg.spec.kind = core::PolicyKind::Easy;
      core::SchedulerService service(std::move(cfg));
      const auto t0 = std::chrono::steady_clock::now();
      std::size_t pos = 0;
      while (pos < script.size()) {
        const std::size_t eol = script.find('\n', pos);
        benchmark::DoNotOptimize(
            service.processLine({script.data() + pos, eol - pos}));
        pos = eol + 1;
      }
      const metrics::RunStats stats = service.finish();
      lane.record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          stats.eventsProcessed);
    }
    w.beginObject();
    w.field("policy", "service-ingest");
    w.field("lane", "service");
    w.field("jobs", static_cast<std::uint64_t>(trace.jobs.size()));
    w.key("incremental").beginObject();
    lane.writeTiming(w);
    w.endObject();
    w.endObject();
    std::cout << "  service-ingest: " << lane.eventsPerSec << " ev/s ("
              << trace.jobs.size() << " protocol submissions, easy)\n";
  }
  // Fleet lane: the federated simulator at 10M jobs (scaled by
  // SPS_BENCH_JOBS like every other lane: jobs x 1250, so the default 8000
  // sweep prices the acceptance-scale run). Two configurations over the
  // SAME fleet workload: 4 clusters x 128 procs under conservative epochs,
  // and the monolithic control — one 4x-wide machine swallowing the whole
  // stream. Equal work, equal total capacity; the gap is partitioning's
  // algorithmic win (shorter per-shard queues, narrower ProcSets, smaller
  // backfill scans), not thread parallelism — fleetSpeedup is wall/wall on
  // however many cores the host gives. Single repeat: the lanes are long
  // and deterministic.
  {
    const std::size_t fleetJobs = jobs * 1250;
    constexpr std::uint32_t kClusters = 4;
    auto clusterCfg = workload::sdscConfig(fleetJobs, 42);
    clusterCfg.offeredLoad = 0.95;
    const auto fleetTrace = workload::generateFleetTrace(clusterCfg, kClusters);

    core::PolicySpec fleetSpec;
    fleetSpec.kind = core::PolicyKind::Easy;

    Lane fedLane;
    std::uint64_t epochs = 0;
    {
      fed::StaticHashRouter router;
      fed::FederationConfig cfg;
      cfg.shards = kClusters;
      fed::Federation federation(fleetTrace, fleetSpec, router, cfg);
      const auto t0 = std::chrono::steady_clock::now();
      const fed::FleetStats fleet = federation.run();
      fedLane.record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          fleet.eventsProcessed());
      epochs = fleet.epochs;
    }

    workload::Trace mono = fleetTrace;
    mono.machineProcs = fleetTrace.machineProcs * kClusters;
    mono.name += "/mono";
    const Lane single = timeLane(mono, fleetSpec, 1);
    const double fleetSpeedup = single.wallSeconds / fedLane.wallSeconds;

    w.beginObject();
    w.field("policy", "fleet@4x128");
    w.field("lane", "fleet");
    w.field("jobs", static_cast<std::uint64_t>(fleetTrace.jobs.size()));
    w.field("shards", static_cast<std::uint64_t>(kClusters));
    w.field("epochs", epochs);
    w.key("incremental").beginObject();
    fedLane.writeTiming(w);
    w.endObject();
    w.field("fleetSpeedup", fleetSpeedup);
    w.endObject();
    w.beginObject();
    w.field("policy", "fleet@1x512");
    w.field("lane", "fleet");
    w.field("jobs", static_cast<std::uint64_t>(mono.jobs.size()));
    w.key("incremental").beginObject();
    single.writeTiming(w);
    w.endObject();
    w.endObject();
    std::cout << "  fleet@4x128: " << fedLane.eventsPerSec << " ev/s in "
              << fedLane.wallSeconds << "s (" << epochs
              << " epochs); fleet@1x512 control " << single.eventsPerSec
              << " ev/s in " << single.wallSeconds << "s — partition speedup "
              << fleetSpeedup << "x\n";
  }
  w.endArray();
  w.endObject();
  out << "\n";
  std::cout << "wrote BENCH_engine.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  runKernelSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
