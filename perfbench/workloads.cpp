// The three workloads: a batch replay, the service stream and the
// federated fleet. Every timing is taken here, around calls to the
// program's public entry points.
#include "workloads.hpp"

#include <algorithm>

#include "check/fleet_audit.hpp"
#include "core/scheduler_service.hpp"
#include "core/simulation.hpp"
#include "fed/federation.hpp"
#include "fed/router.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace pb {

using sps::Time;
using sps::core::PolicySpec;
using sps::metrics::RunStats;
using sps::workload::SyntheticConfig;
using sps::workload::Trace;

bool sameOutputs(const Execution& a, const Execution& b,
                 bool ignoreCheckCounters, std::string* why) {
  const auto differ = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.inputHash != b.inputHash) return differ("generated input");
  if (a.routingHash != b.routingHash) return differ("fleet routing record");
  if (a.digests.size() != b.digests.size()) return differ("run count");
  for (std::size_t i = 0; i < a.digests.size(); ++i)
    if (!sameDigest(a.digests[i], b.digests[i], ignoreCheckCounters, why))
      return false;
  if (a.jobs != b.jobs) return differ("jobs finished");
  if (a.utilPct != b.utilPct) return differ("util_pct");
  if (a.bsldMean != b.bsldMean) return differ("bsld_mean");
  if (a.events != b.events) return differ("sim.events");
  return true;
}

namespace {

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// SDSC-calibrated synthetic trace at offered load 0.95.
SyntheticConfig sdsc(std::size_t jobs, std::uint64_t seed) {
  SyntheticConfig cfg = sps::workload::sdscConfig(jobs, seed);
  cfg.offeredLoad = 0.95;
  return cfg;
}

PolicySpec easy() { return sps::sched::specFromToken("easy"); }

void recordRun(Execution& e, const RunStats& stats) {
  e.digests.push_back(digestOf(stats));
  e.jobs = stats.jobs.size();
  e.utilPct = stats.utilization * 100.0;
  e.bsldMean = stats.jobs.empty() ? 0.0 : stats.meanBoundedSlowdown();
  e.events = stats.eventsProcessed;
  e.counters = stats.counters;
}

void putPercentiles(TracedRun& out, const std::string& prefix,
                    const std::vector<double>& values,
                    std::initializer_list<double> qs) {
  for (double q : qs) {
    const std::string name = prefix + std::to_string(static_cast<int>(q));
    out.values[name] = values.empty() ? 0.0 : percentile(values, q);
    out.samples[name] = values.size();
  }
}

// --- batch replay -------------------------------------------------------------

/// A batch trace replayed through core::SimulationHarness. One operation
/// of the latency sample advances the simulation by one simulated day
/// from the next pending event (Simulator::runUntil).
class BatchWorkload final : public Workload {
 public:
  BatchWorkload(SyntheticConfig cfg, PolicySpec spec)
      : cfg_(std::move(cfg)), spec_(std::move(spec)) {}

  [[nodiscard]] const char* operation() const override {
    return "simulated day";
  }
  [[nodiscard]] std::uint64_t operations() const override {
    return cfg_.jobCount;
  }

  Execution run(CheckTally& tally,
                const sps::check::CheckConfig& check) override {
    Execution e;
    const std::int64_t t0 = nowNs();
    const Trace trace = sps::workload::generateTrace(cfg_);
    sps::core::SimulationOptions options;
    options.check = check;
    sps::core::SimulationHarness harness(trace, spec_, options);
    e.setupS = secondsSince(t0);

    sps::sim::Simulator& sim = harness.simulator();
    for (Time next; (next = sim.nextEventTime()) != sps::kNoTime;) {
      const std::int64_t a = nowNs();
      sim.runUntil(next + sps::kDay - 1);
      e.opNs.push_back(static_cast<double>(nowNs() - a));
    }
    const std::int64_t a = nowNs();
    const RunStats stats = harness.finish();
    const std::int64_t end = nowNs();
    e.restNs = static_cast<double>(end - a);
    e.runS = static_cast<double>(end - t0) * 1e-9 - e.setupS;
    e.peakRssMiB = peakRssMiB();

    e.inputHash = traceHash(trace);
    recordRun(e, stats);
    checkRunStats(trace, stats, sim.unfinishedJobs(), tally);
    return e;
  }

  TracedRun traced(Tracer& tr, CheckTally& tally) override {
    const int root = tr.intern("bench.run");
    const int generate = tr.intern("workload.generate");
    const int construct = tr.intern("sim.construct");
    const int step = tr.intern("sim.step");
    const int pop = tr.intern("sim.pop");
    const int observer = tr.intern("sched.kernel.observer");
    const int drain = tr.intern("sim.drain");
    const int collect = tr.intern("metrics.collect");

    TracedRun out;
    tr.begin(root, 0);
    tr.begin(generate, 0);
    const Trace trace = sps::workload::generateTrace(cfg_);
    tr.end();

    TimedPolicy policy(spec_, tr);
    tr.begin(construct, 0);
    sps::sim::Simulator sim(trace, policy, sps::sim::SimulatorConfig{});
    tr.end();

    // sim.pop: step entry to the event-dispatched observer (queue pop and
    // clock advance). sched.kernel.observer: from a state-change observer
    // registered before the policy's kernel indexes attach to one
    // registered after them.
    std::vector<double> stepNs;
    std::vector<double> popNs;
    std::uint64_t stepIndex = 0;
    std::int64_t popFloor = 0;  // end of onSimulationStart, inside step 0
    std::int64_t bracketStart = 0;
    sim.observers().onStateChange(
        [&](const sps::sim::Simulator&, sps::JobId, sps::sim::JobState,
            sps::sim::JobState) { bracketStart = nowNs(); });
    sim.observers().onEventDispatched(
        [&](const sps::sim::Simulator&, const sps::sim::Event&) {
          const std::int64_t t = nowNs();
          const std::int64_t from = std::max(tr.openStart(), popFloor);
          tr.child(pop, stepIndex, from, t);
          popNs.push_back(static_cast<double>(t - from));
        });
    policy.afterStart = [&](sps::sim::Simulator& s) {
      s.observers().onStateChange(
          [&](const sps::sim::Simulator&, sps::JobId id, sps::sim::JobState,
              sps::sim::JobState) {
            tr.child(observer, id, bracketStart, nowNs());
          });
      popFloor = nowNs();
    };

    for (;; ++stepIndex) {
      tr.begin(step, stepIndex);
      const bool more = sim.step();
      const std::int64_t d = tr.end();
      if (!more) break;
      stepNs.push_back(static_cast<double>(d));
    }
    tr.begin(drain, 0);
    sim.drain();
    tr.end();
    tr.begin(collect, 0);
    const RunStats stats =
        sps::metrics::collect(sim, sps::sched::policyLabel(spec_));
    tr.end();
    out.wallS = static_cast<double>(tr.end()) * 1e-9;

    out.outputs.inputHash = traceHash(trace);
    recordRun(out.outputs, stats);
    checkRunStats(trace, stats, sim.unfinishedJobs(), tally);

    auto& v = out.values;
    const std::size_t n = stepNs.size();
    v["workload.generate_s"] = tr.totalSeconds("workload.generate");
    putPercentiles(out, "sim.step_ns_p", stepNs, {50, 99});
    v["sim.pop_s"] = tr.totalSeconds("sim.pop");
    v["sim.pop_ns_first_tenth"] = meanOf(popNs, 0, n / 10);
    v["sim.pop_ns_last_tenth"] = meanOf(popNs, n - n / 10, n);
    v["sim.step_ns_first_tenth"] = meanOf(stepNs, 0, n / 10);
    v["sim.step_ns_last_tenth"] = meanOf(stepNs, n - n / 10, n);
    double callbacks = 0.0;
    for (const char* cb : {"sched.start", "sched.arrival", "sched.completion",
                           "sched.drained", "sched.timer", "sched.cancel"})
      callbacks += tr.totalSeconds(cb);
    v["sim.handle_s"] =
        tr.totalSeconds("sim.step") - v["sim.pop_s"] - callbacks;
    v["sched.arrival_s"] = tr.totalSeconds("sched.arrival");
    v["sched.completion_s"] = tr.totalSeconds("sched.completion");
    v["sched.kernel.observer_s"] = tr.totalSeconds("sched.kernel.observer");
    v["metrics.collect_s"] = tr.totalSeconds("metrics.collect");
    return out;
  }

 private:
  SyntheticConfig cfg_;
  PolicySpec spec_;
};

// --- service stream -----------------------------------------------------------

struct ScriptLine {
  std::string text;
  Verb verb;
  std::uint64_t expect;  ///< id the reply must name
};

/// Protocol script for a trace: one submit per job in submit order, with
/// reads and cancels on the fixed strides of tools/sps_service_load, so
/// the two measure the same traffic mix: after submit i, a query of i when
/// i % 211 == 105, a cancel when i % 1009 == 503 (of i itself when i is odd,
/// often still queued; else of i/2, long finished, so refused), and stats
/// when i % 4096 == 1000.
std::vector<ScriptLine> renderScript(const Trace& trace) {
  std::vector<ScriptLine> lines;
  lines.reserve(trace.jobs.size() + trace.jobs.size() / 200 + 1);
  for (std::uint64_t i = 0; i < trace.jobs.size(); ++i) {
    const sps::workload::Job& j = trace.jobs[i];
    lines.push_back({"submit " + std::to_string(j.submit) + ' ' +
                         std::to_string(j.procs) + ' ' +
                         std::to_string(j.runtime) + ' ' +
                         std::to_string(j.estimate) + ' ' +
                         std::to_string(j.memoryMb),
                     Verb::Submit, i});
    if (i % 211 == 105)
      lines.push_back({"query " + std::to_string(i), Verb::Query, i});
    if (i % 1009 == 503) {
      const std::uint64_t victim = i % 2 ? i : i / 2;
      lines.push_back(
          {"cancel " + std::to_string(victim), Verb::Cancel, victim});
    }
    if (i % 4096 == 1000) lines.push_back({"stats", Verb::Stats, 0});
  }
  lines.push_back({"drain", Verb::Drain, 0});
  return lines;
}

/// Members of 0..n-1 congruent to r modulo m.
std::uint64_t countResidue(std::uint64_t n, std::uint64_t m, std::uint64_t r) {
  return n > r ? (n - 1 - r) / m + 1 : 0;
}

/// Bookkeeping of one pass over the script.
struct StreamState {
  std::vector<bool> cancelled;
  std::uint64_t refused = 0;
  std::uint64_t malformed = 0;
};

/// Check a reply; failures go to the tally (one per protocol line).
void checkReply(const ScriptLine& line, const std::string& reply,
                StreamState& st, CheckTally& tally) {
  bool refused = false;
  if (!replyWellFormed(line.verb, reply, line.expect, &refused)) {
    ++st.malformed;
    tally.fail(1, "malformed reply to '" + line.text + "': '" + reply + "'");
    return;
  }
  if (line.verb == Verb::Cancel) {
    if (refused) ++st.refused;
    else st.cancelled[line.expect] = true;
  }
}

/// The SDSC trace rendered as a protocol script and served, line by line,
/// by core::SchedulerService: one closed-loop client that waits for each
/// reply. One operation is one protocol line.
class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(SyntheticConfig cfg, PolicySpec spec)
      : cfg_(std::move(cfg)), spec_(std::move(spec)) {}

  [[nodiscard]] const char* operation() const override {
    return "protocol line";
  }
  [[nodiscard]] std::uint64_t operations() const override {
    const std::uint64_t n = cfg_.jobCount;
    return n + countResidue(n, 211, 105) + countResidue(n, 1009, 503) +
           countResidue(n, 4096, 1000) + 1;
  }

  Execution run(CheckTally& tally,
                const sps::check::CheckConfig& check) override {
    Execution e;
    const std::int64_t t0 = nowNs();
    const Trace trace = sps::workload::generateTrace(cfg_);
    const std::vector<ScriptLine> script = renderScript(trace);
    sps::core::SimulationOptions options;
    options.check = check;
    sps::core::SchedulerService service(config(trace, options));
    e.setupS = secondsSince(t0);

    StreamState st{std::vector<bool>(trace.jobs.size(), false)};
    e.opNs.reserve(script.size());
    for (const ScriptLine& line : script) {
      const std::int64_t a = nowNs();
      const std::string reply = service.processLine(line.text);
      e.opNs.push_back(static_cast<double>(nowNs() - a));
      checkReply(line, reply, st, tally);
    }
    const std::int64_t a = nowNs();
    const RunStats stats = service.finish();
    const std::int64_t end = nowNs();
    e.restNs = static_cast<double>(end - a);
    e.runS = static_cast<double>(end - t0) * 1e-9 - e.setupS;
    e.peakRssMiB = peakRssMiB();
    finishChecks(e, trace, script, stats, service, st, tally);
    return e;
  }

  TracedRun traced(Tracer& tr, CheckTally& tally) override {
    const int root = tr.intern("bench.run");
    const int generate = tr.intern("workload.generate");
    const int render = tr.intern("workload.render");
    const int construct = tr.intern("core.service.construct");
    const int lineSpan = tr.intern("core.service.line");
    const int finish = tr.intern("core.service.finish");
    const int collect = tr.intern("metrics.collect");

    TracedRun out;
    tr.begin(root, 0);
    tr.begin(generate, 0);
    const Trace trace = sps::workload::generateTrace(cfg_);
    tr.end();
    tr.begin(render, 0);
    const std::vector<ScriptLine> script = renderScript(trace);
    tr.end();
    tr.begin(construct, 0);
    sps::core::SchedulerService service(config(trace, {}));
    tr.end();

    // Only the line span runs inside the loop; replies are checked and
    // latencies classified after the traced run ends.
    std::vector<double> lineUs, lineEvents;
    std::vector<std::string> replies;
    lineUs.reserve(script.size());
    lineEvents.reserve(script.size());
    replies.reserve(script.size());
    for (std::uint64_t i = 0; i < script.size(); ++i) {
      const std::uint64_t before = service.simulator().eventsProcessed();
      tr.begin(lineSpan, i);
      replies.push_back(service.processLine(script[i].text));
      lineUs.push_back(static_cast<double>(tr.end()) * 1e-3);
      lineEvents.push_back(static_cast<double>(
          service.simulator().eventsProcessed() - before));
    }
    tr.begin(finish, 0);
    const RunStats stats = service.finish();
    tr.end();
    // The drained simulator collected once more, outside the service: times
    // the metrics layer alone and must reproduce the service's own stats.
    tr.begin(collect, 0);
    const RunStats again = sps::metrics::collect(
        service.simulator(), sps::sched::policyLabel(spec_));
    tr.end();
    out.wallS = static_cast<double>(tr.end()) * 1e-9;

    StreamState st{std::vector<bool>(trace.jobs.size(), false)};
    std::vector<double> submitUs, readUs, cancelUs, idleUs;
    for (std::size_t i = 0; i < script.size(); ++i) {
      checkReply(script[i], replies[i], st, tally);
      if (lineEvents[i] == 0) idleUs.push_back(lineUs[i]);
      switch (script[i].verb) {
        case Verb::Submit: submitUs.push_back(lineUs[i]); break;
        case Verb::Query:
        case Verb::Stats: readUs.push_back(lineUs[i]); break;
        case Verb::Cancel: cancelUs.push_back(lineUs[i]); break;
        case Verb::Drain: break;
      }
    }
    std::string why;
    if (!sameDigest(digestOf(stats), digestOf(again), false, &why))
      tally.fail(1, "metrics::collect disagrees with the service: " + why);
    finishChecks(out.outputs, trace, script, stats, service, st, tally);

    auto& v = out.values;
    v["workload.generate_s"] = tr.totalSeconds("workload.generate");
    v["metrics.collect_s"] = tr.totalSeconds("metrics.collect");
    putPercentiles(out, "core.service.submit_us_p", submitUs, {50, 99});
    putPercentiles(out, "core.service.read_us_p", readUs, {99});
    putPercentiles(out, "core.service.cancel_us_p", cancelUs, {99});
    putPercentiles(out, "core.service.idle_line_us_p", idleUs, {50});
    putPercentiles(out, "core.service.events_per_line_p", lineEvents, {99});
    v["core.service.cancel_refused"] = static_cast<double>(st.refused);
    return out;
  }

 private:
  sps::core::ServiceConfig config(const Trace& trace,
                                  sps::core::SimulationOptions options) const {
    sps::core::ServiceConfig c;
    c.traceName = trace.name;
    c.machineProcs = trace.machineProcs;
    c.spec = spec_;
    c.options = std::move(options);
    return c;
  }

  /// Job-level output check and the execution's recorded outputs. Protocol
  /// lines are the operations: one attempt per line, and a bad job record
  /// counts one failure.
  void finishChecks(Execution& e, const Trace& trace,
                    const std::vector<ScriptLine>& script,
                    const RunStats& stats, sps::core::SchedulerService& service,
                    const StreamState& st, CheckTally& tally) const {
    tally.attempted += script.size();
    CheckTally jobs;
    checkRunStats(trace, stats, service.simulator().unfinishedJobs(), jobs,
                  &st.cancelled);
    tally.addFailures(jobs);
    e.inputHash = traceHash(trace);
    recordRun(e, stats);
  }

  SyntheticConfig cfg_;
  PolicySpec spec_;
};

// --- federated fleet ----------------------------------------------------------

/// Forwards to the least-loaded router and notes when each epoch's routing
/// begins: the federation resets every shard view's routed proc-seconds at
/// a barrier, so a call that sees them all at zero opens a new epoch.
class EpochRouter final : public sps::fed::JobRouter {
 public:
  EpochRouter() : inner_(sps::fed::routerFromToken("least-loaded")) {}

  [[nodiscard]] std::uint32_t route(
      const sps::workload::Job& job, std::uint64_t seq,
      const std::vector<sps::fed::ShardView>& shards) override {
    if (std::all_of(shards.begin(), shards.end(), [](const auto& v) {
          return v.routedProcSeconds == 0.0;
        })) {
      starts.push_back(nowNs());
      if (onEpoch) onEpoch(starts.size() - 1);
    }
    return inner_->route(job, seq, shards);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::vector<std::int64_t> starts;
  std::function<void(std::size_t)> onEpoch;

 private:
  std::unique_ptr<sps::fed::JobRouter> inner_;
};

/// A fleet trace routed over four EASY clusters by fed::Federation. One
/// operation of the latency sample is one conservative epoch, from the
/// start of its routing to the start of the next one's.
class FleetWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kShards = 4;
  static constexpr Time kDelay = 60;

  FleetWorkload(SyntheticConfig cfg, PolicySpec spec)
      : cfg_(std::move(cfg)), spec_(std::move(spec)) {}

  [[nodiscard]] const char* operation() const override { return "epoch"; }
  [[nodiscard]] std::uint64_t operations() const override {
    return cfg_.jobCount;
  }

  Execution run(CheckTally& tally,
                const sps::check::CheckConfig& check) override {
    Execution e;
    const std::int64_t t0 = nowNs();
    const Trace fleet = sps::workload::generateFleetTrace(cfg_, kShards);
    EpochRouter router;
    sps::fed::Federation federation(fleet, spec_, router,
                                    config(kThreads, check));
    e.setupS = secondsSince(t0);

    const std::int64_t a = nowNs();
    const sps::fed::FleetStats stats = federation.run();
    const std::int64_t end = nowNs();
    e.runS = static_cast<double>(end - a) * 1e-9;
    e.peakRssMiB = peakRssMiB();
    const std::vector<std::int64_t>& starts = router.starts;
    e.restNs = static_cast<double>((starts.empty() ? end : starts[0]) - a);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::int64_t next = i + 1 < starts.size() ? starts[i + 1] : end;
      e.opNs.push_back(static_cast<double>(next - starts[i]));
    }
    audit(fleet, stats, tally);
    record(e, fleet, stats, tally);
    return e;
  }

  TracedRun traced(Tracer& tr, CheckTally& tally) override {
    const int root = tr.intern("bench.run");
    const int generate = tr.intern("workload.generate");
    const int run = tr.intern("fed.run");
    const int epoch = tr.intern("fed.epoch");
    const int split = tr.intern("fed.per_shard_traces");
    const int shardRun = tr.intern("fed.shard_run");
    const int collect = tr.intern("metrics.collect");
    const int auditSpan = tr.intern("check.audit_fleet");

    TracedRun out;
    tr.begin(root, 0);
    tr.begin(generate, 0);
    const Trace fleet = sps::workload::generateFleetTrace(cfg_, kShards);
    tr.end();

    EpochRouter router;
    router.onEpoch = [&](std::size_t i) {
      if (i > 0) tr.end();
      tr.begin(epoch, i);
    };
    sps::fed::Federation federation(fleet, spec_, router, config(1, {}));
    tr.begin(run, 0);
    const sps::fed::FleetStats stats = federation.run();
    if (!router.starts.empty()) tr.end();
    tr.end();

    tr.begin(split, 0);
    const std::vector<Trace> shards = sps::fed::perShardTraces(
        fleet, stats.assignments, stats.effectiveSubmits, kShards);
    tr.end();

    // Standalone batch runs of the induced per-cluster traces must equal
    // the federation's shards bit for bit (partition equivalence).
    std::vector<double> shardEvents;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      tr.begin(shardRun, s);
      const auto policy = sps::sched::makePolicy(spec_);
      sps::sim::Simulator sim(shards[s], *policy);
      sim.run();
      tr.begin(collect, s);
      const RunStats alone =
          sps::metrics::collect(sim, sps::sched::policyLabel(spec_));
      tr.end();
      tr.end();
      std::string why;
      if (!sameDigest(digestOf(alone), digestOf(stats.shards[s]), false, &why))
        tally.fail(stats.shards[s].jobs.size(),
                   "shard " + std::to_string(s) +
                       " differs from its standalone run: " + why);
      shardEvents.push_back(static_cast<double>(alone.eventsProcessed));
    }

    tr.begin(auditSpan, 0);
    audit(fleet, stats, tally);
    tr.end();
    out.wallS = static_cast<double>(tr.end()) * 1e-9;
    record(out.outputs, fleet, stats, tally);

    auto& v = out.values;
    v["workload.generate_s"] = tr.totalSeconds("workload.generate");
    v["metrics.collect_s"] = tr.totalSeconds("metrics.collect");
    v["fed.epochs"] = static_cast<double>(stats.epochs);
    v["fed.forwarded"] = static_cast<double>(stats.forwarded);
    v["fed.shard_events_max_over_mean"] =
        *std::max_element(shardEvents.begin(), shardEvents.end()) /
        meanOf(shardEvents, 0, shardEvents.size());
    v["fed.shard_run_s"] = tr.totalSeconds("fed.shard_run");
    v["fed.overhead_s"] = tr.totalSeconds("fed.run") - v["fed.shard_run_s"];
    v["fed.audit_s"] = tr.totalSeconds("check.audit_fleet");
    return out;
  }

 private:
  /// One pool thread; shard results are bit-identical at any count. On a
  /// shared 4-vCPU host every epoch barrier waits for the slowest CPU, and
  /// at 2 or 4 threads run-to-run throughput swung by up to 2x.
  static constexpr std::size_t kThreads = 1;

  static sps::fed::FederationConfig config(std::size_t threads,
                                           sps::check::CheckConfig check) {
    sps::fed::FederationConfig c;
    c.shards = kShards;
    c.routingDelay = kDelay;
    c.threads = threads;
    c.check = check;
    return c;
  }

  /// check::auditFleetConservation; a violation fails every fleet job.
  static void audit(const Trace& fleet, const sps::fed::FleetStats& stats,
                    CheckTally& tally) {
    try {
      sps::check::auditFleetConservation(fleet, stats.shards,
                                         stats.assignments,
                                         stats.effectiveSubmits, kShards,
                                         kDelay);
    } catch (const std::exception& ex) {
      tally.fail(stats.jobCount(),
                 std::string("fleet conservation audit: ") + ex.what());
    }
  }

  /// Outputs of one federated run, and the per-shard output check against
  /// the per-cluster traces the routing record induces.
  static void record(Execution& e, const Trace& fleet,
                     const sps::fed::FleetStats& stats, CheckTally& tally) {
    e.inputHash = traceHash(fleet);
    std::uint64_t h = fnv1a(stats.assignments.data(),
                            stats.assignments.size() * sizeof(std::uint32_t));
    h = fnv1a(stats.effectiveSubmits.data(),
              stats.effectiveSubmits.size() * sizeof(Time), h);
    h = fnv1a(&stats.epochs, sizeof stats.epochs, h);
    e.routingHash = fnv1a(&stats.forwarded, sizeof stats.forwarded, h);
    for (const RunStats& s : stats.shards) e.digests.push_back(digestOf(s));
    e.jobs = stats.jobCount();
    e.utilPct = stats.utilization() * 100.0;
    e.bsldMean = stats.meanBoundedSlowdown();
    e.events = stats.eventsProcessed();
    e.counters = stats.counters();

    const std::vector<Trace> shards = sps::fed::perShardTraces(
        fleet, stats.assignments, stats.effectiveSubmits, kShards);
    for (std::uint32_t s = 0; s < kShards; ++s)
      checkRunStats(shards[s], stats.shards[s], 0, tally);
  }

  SyntheticConfig cfg_;
  PolicySpec spec_;
};

}  // namespace

std::vector<std::unique_ptr<Workload>> makeInputs(const std::string& name,
                                                  std::uint64_t seed) {
  // Jobs per input: a round over the inputs takes about 1.5 s on a 4-vCPU
  // Xeon, so a 30 s run repeats every operation about twenty times.
  std::vector<std::unique_ptr<Workload>> inputs;
  for (std::uint64_t k = 0; k < kInputsPerRun; ++k) {
    const std::uint64_t s = seed * kInputsPerRun + k;
    if (name == "batch-long")
      inputs.push_back(std::make_unique<BatchWorkload>(sdsc(100000, s), easy()));
    else if (name == "service-stream")
      inputs.push_back(std::make_unique<ServiceWorkload>(sdsc(50000, s), easy()));
    else if (name == "fleet")
      inputs.push_back(std::make_unique<FleetWorkload>(sdsc(125000, s), easy()));
    else
      return {};
  }
  return inputs;
}

}  // namespace pb
