// perfbench — run one workload and print its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE.json]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Both check every output and exit 1 on a failed check or on a simulated
// quantity that differs between two runs of the seed. The last stdout line
// is the JSON result; the lines before it are a readable report.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "obs/counters.hpp"
#include "workloads.hpp"

namespace {

using pb::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.step_ns_p50", "ns"},
    {"sim.step_ns_p99", "ns"},
    {"sim.pop_s", "s"},
    {"sim.pop_ns_first_tenth", "ns"},
    {"sim.pop_ns_last_tenth", "ns"},
    {"sim.step_ns_first_tenth", "ns"},
    {"sim.step_ns_last_tenth", "ns"},
    {"sim.handle_s", "s"},
    {"sched.arrival_s", "s"},
    {"sched.completion_s", "s"},
    {"sched.backfill_starts_per_test", "ratio"},
    {"sched.kernel.observer_s", "s"},
    {"metrics.collect_s", "s"},
    {"check.oracle_overhead_x", "x"},
    {"core.service.submit_us_p50", "us"},
    {"core.service.submit_us_p99", "us"},
    {"core.service.read_us_p99", "us"},
    {"core.service.cancel_us_p99", "us"},
    {"core.service.idle_line_us_p50", "us"},
    {"core.service.events_per_line_p99", "count"},
    {"core.service.cancel_refused", "count"},
    {"fed.epochs", "count"},
    {"fed.forwarded", "count"},
    {"fed.shard_events_max_over_mean", "ratio"},
    {"fed.shard_run_s", "s"},
    {"fed.overhead_s", "s"},
    {"fed.audit_s", "s"},
    {"bench.trace_overhead_x", "x"},
    {"bench.unattributed_s", "s"},
};

/// The obs counters the workloads move; every one is nonzero on each of
/// them (all run EASY). The suspension, victim, priority-index and SS-pass
/// counters stay zero without a preemptive policy, so they are left out.
std::vector<sps::obs::Counter> reportedCounters() {
  using C = sps::obs::Counter;
  return {C::SimEvents,         C::SimClockAdvances,   C::SimTransitions,
          C::SimStarts,         C::LedgerAddBusy,      C::LedgerRemoveBusy,
          C::LedgerShiftOrigins, C::ShadowQueries,     C::BackfillTests,
          C::BackfillStarts,    C::BackfillRejects,    C::ArrivalFastPaths,
          C::FullPasses};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string traceOut;
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      haveSeed = *end == '\0' && !value.empty() && value[0] != '-';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      haveSeconds = *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--trace-out") {
      a.traceOut = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
    return std::nullopt;
  return a;
}

/// One input of the run and what its untraced executions measured.
struct Input {
  std::unique_ptr<pb::Workload> workload;
  pb::Execution ref;          ///< outputs of its first timed execution
  std::vector<double> wallS;  ///< setup + run of each timed execution
  pb::BestSegments ops;       ///< fastest repeat of each operation
  double bestRestNs = 0.0;    ///< fastest repeat of the rest of the run
  double verifyWallS = 0.0;   ///< the oracle-armed verification pass
  double bestRunS() const { return (ops.totalNs() + bestRestNs) * 1e-9; }
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  if (const std::string why = pb::buildRefusal(); !why.empty()) {
    std::cerr << "perfbench: refusing to report from this build: " << why
              << '\n';
    return 3;
  }
  std::vector<Input> inputs;
  for (std::unique_ptr<pb::Workload>& w :
       pb::makeInputs(args->workload, args->seed)) {
    inputs.emplace_back();
    inputs.back().workload = std::move(w);
  }
  if (inputs.empty()) {
    std::cerr << "perfbench: unknown workload '" << args->workload << "'\n";
    return 2;
  }
  const pb::Workload& first = *inputs[0].workload;
  std::cout << "# perfbench workload=" << args->workload
            << " seed=" << args->seed << " seconds=" << args->seconds
            << " trace=" << (args->trace ? 1 : 0) << " inputs="
            << inputs.size() << '\n'
            << "# host " << pb::hostFingerprint() << '\n';

  pb::CheckTally tally;
  std::string nondeterministic;  // first simulated quantity that differed
  std::vector<double> setupS, runS;  // every timed execution
  std::size_t rounds = 0;
  pb::HostPace pace;  // sampled after every round
  std::optional<pb::TracedRun> traced;
  pb::Tracer tracer;
  try {
    // --seconds covers the timed executions: rounds over every input, as
    // many as fit and at least three, so that every operation has repeats
    // to take the fastest of.
    const std::int64_t start = pb::nowNs();
    for (rounds = 1;; ++rounds) {
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        Input& in = inputs[k];
        pb::Execution e = in.workload->run(tally, {});
        setupS.push_back(e.setupS);
        runS.push_back(e.runS);
        in.wallS.push_back(e.setupS + e.runS);
        in.bestRestNs =
            rounds == 1 ? e.restNs : std::min(in.bestRestNs, e.restNs);
        const bool sameOps = in.ops.add(e.opNs);
        e.opNs.clear();
        std::string why;
        const std::string at = " (input " + std::to_string(k) +
                               ", timed run " + std::to_string(rounds) + ")";
        if (rounds == 1) in.ref = std::move(e);
        else if (nondeterministic.empty() &&
                 !pb::sameOutputs(in.ref, e, false, &why))
          nondeterministic = why + at;
        else if (nondeterministic.empty() && !sameOps)
          nondeterministic = "operation count" + at;
      }
      pace.sample();
      const double elapsed = static_cast<double>(pb::nowNs() - start) * 1e-9;
      if (rounds >= 3 && elapsed * static_cast<double>(rounds + 1) /
                                 static_cast<double>(rounds) > args->seconds)
        break;
    }

    for (std::size_t k = 0; k < inputs.size(); ++k) {
      Input& in = inputs[k];
      pb::Execution v = in.workload->run(
          tally, sps::check::CheckConfig::all(pb::kOracleStride));
      in.verifyWallS = v.setupS + v.runS;
      std::string why;
      if (nondeterministic.empty() && !pb::sameOutputs(in.ref, v, true, &why))
        nondeterministic = why + " (input " + std::to_string(k) +
                           ", oracle-armed verification pass)";
    }

    if (args->trace) {
      traced = inputs[0].workload->traced(tracer, tally);
      std::string why;
      if (nondeterministic.empty() &&
          !pb::sameOutputs(inputs[0].ref, traced->outputs, false, &why))
        nondeterministic = why + " (input 0, traced run)";
      if (!args->traceOut.empty() && !tracer.writeChromeTrace(args->traceOut))
        std::cerr << "perfbench: could not write " << args->traceOut << '\n';
    }
  } catch (const std::exception& ex) {
    tally.attempted += first.operations();
    tally.fail(first.operations(), std::string("run threw: ") + ex.what());
  }

  for (const std::string& note : tally.notes)
    std::cerr << "perfbench: check failed: " << note << '\n';
  if (!nondeterministic.empty())
    std::cerr << "perfbench: NONDETERMINISM: " << nondeterministic
              << " differs between runs of seed " << args->seed
              << " -- a bug, not noise\n";
  const bool correct =
      tally.failed == 0 && nondeterministic.empty() && !runS.empty();
  std::cout << "# checked " << tally.attempted << " operations, "
            << tally.failed << " failed (error_rate "
            << (tally.attempted ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 1.0)
            << "); simulated quantities "
            << (nondeterministic.empty() ? "repeat exactly" : "DIFFER")
            << " over " << rounds << " timed runs of each of "
            << inputs.size() << " inputs, their verification passes"
            << (traced ? " and the traced run" : "") << '\n';

  std::cout << "# run phase of each timed run (s, inputs in turn):";
  for (double s : runS) std::cout << ' ' << pb::formatNumber(s);
  std::cout << "\n# setup samples (s):";
  for (double s : setupS) std::cout << ' ' << pb::formatNumber(s);
  std::cout << '\n';

  std::vector<Metric> metrics;
  if (correct && !args->trace) {
    // Pooled over the inputs: all their operations, all their jobs.
    std::vector<double> opUs;
    double jobs = 0.0, bestRunS = 0.0, util = 0.0, bsld = 0.0;
    std::cout << "# best run phase per input (s):";
    for (const Input& in : inputs) {
      for (double ns : in.ops.ns()) opUs.push_back(ns * 1e-3);
      jobs += static_cast<double>(in.ref.jobs);
      bestRunS += in.bestRunS();
      util += in.ref.utilPct;
      bsld += in.ref.bsldMean;
      std::cout << ' ' << pb::formatNumber(in.bestRunS());
    }
    const double n = static_cast<double>(inputs.size());
    const double loopNs = pace.loopNs();
    const auto scaled = [&](double t) { return pb::atReferencePace(t, loopNs); };
    metrics = {
        {"setup_s", scaled(pb::median(setupS)), "s", setupS.size()},
        {"jobs_per_s", jobs / scaled(bestRunS), "jobs/s", runS.size()},
        {"line_us_p50", scaled(pb::percentile(opUs, 50)), "us", opUs.size()},
        {"line_us_p99", scaled(pb::percentile(opUs, 99)), "us", opUs.size()},
        // Read after the first round's last run phase: the largest peak
        // of executing one input once.
        {"peak_rss_mb", inputs.back().ref.peakRssMiB, "MiB", 1},
        {"util_pct", util / n, "%", inputs.size()},
        {"bsld_mean", bsld / n, "ratio", inputs.size()},
    };
    std::cout << "\n# one line operation = one " << first.operation()
              << "; jobs_per_s and line_us_* take each operation at its "
                 "fastest over its input's "
              << rounds << " timed runs; line_us_p99 has "
              << pb::samplesBeyond(opUs.size(), 99) << " of "
              << opUs.size() << " samples beyond it\n"
              << "# host pace: the fixed loop took " << pb::formatNumber(loopNs)
              << " ns (median of " << pace.samples() << " samples; reference "
              << pb::formatNumber(pb::HostPace::kReferenceNs)
              << " ns); wall-clock metrics are scaled to the reference pace. "
                 "Unscaled: setup_s "
              << pb::formatNumber(pb::median(setupS)) << " s, jobs_per_s "
              << pb::formatNumber(jobs / bestRunS) << ", line_us_p50 "
              << pb::formatNumber(pb::percentile(opUs, 50)) << " us, line_us_p99 "
              << pb::formatNumber(pb::percentile(opUs, 99)) << " us\n";
  } else if (correct) {
    const pb::TracedRun& tr = *traced;
    const Input& in = inputs[0];  // the traced run replays input 0
    const double untracedWall = pb::median(in.wallS);
    for (const MetricSpec& m : kPerLayer) {
      const auto it = tr.values.find(m.name);
      const auto s = tr.samples.find(m.name);
      metrics.push_back({m.name, it == tr.values.end() ? 0.0 : it->second,
                         m.unit, s == tr.samples.end() ? 0 : s->second});
    }
    const auto set = [&](const char* name, double value) {
      for (Metric& m : metrics)
        if (m.name == name) m.value = value;
    };
    const sps::obs::Counters& c = in.ref.counters;
    using C = sps::obs::Counter;
    const auto ratio = [&](C num, C den) {
      return c.value(den) == 0 ? 0.0
                               : static_cast<double>(c.value(num)) /
                                     static_cast<double>(c.value(den));
    };
    set("sim.events", static_cast<double>(in.ref.events));
    set("sim.ns_per_event",
        in.bestRunS() * 1e9 / static_cast<double>(in.ref.events));
    set("sched.backfill_starts_per_test", ratio(C::BackfillStarts, C::BackfillTests));
    set("check.oracle_overhead_x", in.verifyWallS / untracedWall);
    set("bench.trace_overhead_x", tr.wallS / untracedWall);
    set("bench.unattributed_s", tracer.selfSeconds("bench.run"));
    for (C counter : reportedCounters())
      metrics.push_back({std::string("counter.") + sps::obs::counterName(counter),
                         static_cast<double>(c.value(counter)), "count", 0});
    std::cout << "# spans: ";
    for (const pb::Tracer::Aggregate& a : tracer.aggregates())
      std::cout << a.name << " n=" << a.count << " self="
                << pb::formatNumber(static_cast<double>(a.selfNs) * 1e-9)
                << "s; ";
    std::cout << tracer.dropped() << " spans beyond the export cap\n";
  }
  for (const Metric& m : metrics)
    std::cout << "# " << m.name << " = " << pb::formatNumber(m.value) << ' '
              << m.unit
              << (m.samples > 1 ? " (n=" + std::to_string(m.samples) + ")"
                                : std::string())
              << '\n';
  std::cout << pb::resultLine(correct, std::max<std::uint64_t>(tally.attempted, 1),
                              tally.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}
