// Tests for the observability layer (sps::obs): counters, trace sinks, the
// typed observer registry, and their integration with the simulator, the
// scheduling kernel, and the Runner.
//
// The suite is written to pass in both build flavours: with -DSPS_TRACE=OFF
// (default) it proves the hot path makes zero sink calls; with ON it proves
// the emitted traces are valid JSON and the counters are unaffected.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/reference/reference_policy.hpp"
#include "core/experiment.hpp"
#include "core/runner.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/json.hpp"
#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using obs::Counter;

// --- counters ---------------------------------------------------------------

TEST(Counters, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const std::string name = obs::counterName(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty()) << "counter " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
}

TEST(Counters, IncAddValueReset) {
  obs::Counters c;
  EXPECT_FALSE(c.anyNonZero());
  c.inc(Counter::SimEvents);
  c.add(Counter::SimEvents, 4);
  c.incSuspensionCategory(3);
  EXPECT_EQ(c.value(Counter::SimEvents), 5u);
  EXPECT_EQ(c.value(Counter::SimStarts), 0u);
  EXPECT_EQ(c.suspensionsByCategory()[3], 1u);
  EXPECT_TRUE(c.anyNonZero());

  obs::Counters same;
  same.add(Counter::SimEvents, 5);
  same.incSuspensionCategory(3);
  EXPECT_EQ(c, same);

  c.reset();
  EXPECT_FALSE(c.anyNonZero());
  EXPECT_EQ(c, obs::Counters{});
}

TEST(Counters, JsonOmitsZerosAndValidates) {
  obs::Counters c;
  c.add(Counter::SimSuspensions, 7);
  c.incSuspensionCategory(0);
  std::ostringstream os;
  metrics::JsonWriter w(os);
  metrics::writeCountersJson(w, c);
  const std::string json = os.str();
  std::string error;
  EXPECT_TRUE(metrics::validateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"sim.suspensions\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("suspensionsByCategory"), std::string::npos) << json;
  EXPECT_EQ(json.find("sim.events"), std::string::npos)
      << "zero counters must be omitted: " << json;
}

// --- validateJson -----------------------------------------------------------

TEST(ValidateJson, AcceptsWellFormedDocuments) {
  for (const char* text :
       {"{}", "[]", "null", "true", "-12.5e3", "\"a\\u0041b\"",
        "{\"k\":[1,2,{\"n\":null}],\"s\":\"\\\"\"}", "  [1, 2, 3]  "}) {
    std::string error;
    EXPECT_TRUE(metrics::validateJson(text, &error)) << text << ": " << error;
  }
}

TEST(ValidateJson, RejectsMalformedDocuments) {
  for (const char* text :
       {"", "{", "}", "[1,]", "{\"k\":}", "{\"k\" 1}", "01", "1.", "+1",
        "nul", "\"unterminated", "\"bad\\q\"", "\"ctrl\tchar\"", "[1] x",
        "{\"a\":1,}", "'single'"}) {
    std::string error;
    EXPECT_FALSE(metrics::validateJson(text, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// --- trace sinks ------------------------------------------------------------

obs::TraceEvent sampleEvent() {
  return obs::complete("cat", "name", 10, 5, 2).arg("k", 1).str("s", "v");
}

TEST(TraceSinks, ChromeTraceIsValidJson) {
  std::ostringstream os;
  {
    obs::ChromeTraceSink sink(os);
    sink.emit(sampleEvent());
    sink.emit(obs::instant("sim", "tick", 42));
    sink.emit(obs::begin("job", "run", 0, 7));
    sink.emit(obs::end("job", "run", 9, 7));
    EXPECT_EQ(sink.eventCount(), 4u);
  }  // destructor writes the closing bracket
  const std::string json = os.str();
  std::string error;
  EXPECT_TRUE(metrics::validateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceSinks, ChromeTraceEmptyIsStillLoadable) {
  std::ostringstream os;
  { obs::ChromeTraceSink sink(os); }
  std::string error;
  EXPECT_TRUE(metrics::validateJson(os.str(), &error)) << error;
}

TEST(TraceSinks, JsonlEmitsOneValidObjectPerLine) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  sink.emit(sampleEvent());
  sink.emit(obs::instant("sim", "tick", 1));
  EXPECT_EQ(sink.eventCount(), 2u);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    std::string error;
    EXPECT_TRUE(metrics::validateJson(line, &error)) << error << "\n" << line;
  }
  EXPECT_EQ(n, 2u);
}

// --- observer registry ------------------------------------------------------

workload::Trace suspensionTrace() {
  // Greedy ScriptedPolicy on this trace produces starts, a suspension via
  // the scripted timer, and a resume — every observer kind fires.
  return test::makeTrace(8, {{0, 100, 4}, {10, 50, 4}});
}

TEST(ObserverRegistry, TypedSubscriptionsFire) {
  const auto trace = suspensionTrace();
  test::ScriptedPolicy policy;
  sim::Simulator s(trace, policy);

  std::uint64_t events = 0;
  std::uint64_t transitions = 0;
  std::vector<std::pair<Time, Time>> clockSteps;
  s.observers().onEventDispatched(
      [&](const sim::Simulator&, const sim::Event&) { ++events; });
  s.observers().onStateChange(
      [&](const sim::Simulator&, JobId, sim::JobState, sim::JobState) {
        ++transitions;
      });
  s.observers().onClockAdvanced(
      [&](const sim::Simulator&, Time from, Time to) {
        clockSteps.emplace_back(from, to);
      });
  EXPECT_EQ(s.observers().eventDispatchedCount(), 1u);
  EXPECT_EQ(s.observers().stateChangeCount(), 1u);
  EXPECT_EQ(s.observers().clockAdvancedCount(), 1u);

  s.run();
  EXPECT_EQ(events, s.eventsProcessed());
  EXPECT_GT(transitions, 0u);
  EXPECT_EQ(transitions, s.counters().value(Counter::SimTransitions));
  ASSERT_FALSE(clockSteps.empty());
  for (const auto& [from, to] : clockSteps) EXPECT_LT(from, to);
  EXPECT_EQ(clockSteps.size(),
            s.counters().value(Counter::SimClockAdvances));
}

// PR 3 deprecated the pre-registry shims; this PR removes them. The
// requires-expressions prove the names are gone from the API (a revival
// would flip these to true and fail), and the registry test shows the
// replacement carries multiple subscribers natively.
template <typename S>
concept HasLegacyHook = requires(S s) {
  s.setStateChangeHook(
      [](const sim::Simulator&, JobId, sim::JobState, sim::JobState) {});
};
template <typename S>
concept HasLegacyObserver = requires(S s) {
  s.addStateChangeObserver(
      [](const sim::Simulator&, JobId, sim::JobState, sim::JobState) {});
};
static_assert(!HasLegacyHook<sim::Simulator>,
              "setStateChangeHook shim was removed in this PR");
static_assert(!HasLegacyObserver<sim::Simulator>,
              "addStateChangeObserver shim was removed in this PR");

TEST(ObserverRegistry, MultipleSubscribersAllForward) {
  const auto trace = suspensionTrace();
  test::ScriptedPolicy policy;
  sim::Simulator s(trace, policy);
  std::uint64_t transitions = 0;
  for (int i = 0; i < 2; ++i)
    s.observers().onStateChange(
        [&](const sim::Simulator&, JobId, sim::JobState, sim::JobState) {
          ++transitions;
        });
  EXPECT_EQ(s.observers().stateChangeCount(), 2u);
  s.run();
  EXPECT_EQ(transitions, 2 * s.counters().value(Counter::SimTransitions));
}

// --- simulator counters -----------------------------------------------------

TEST(SimulatorCounters, MatchTheTransitionLog) {
  const auto trace = test::makeTrace(8, {{0, 100, 8}, {0, 100, 8}});
  test::ScriptedPolicy policy;
  policy.arrival = [](sim::Simulator& s, JobId j) {
    if (j == 0) s.startJob(0);
    if (j == 1) {
      s.suspendJob(0);
      s.startJob(1);
    }
  };
  policy.completion = [](sim::Simulator& s, JobId j) {
    if (j == 1) s.resumeJob(0);
  };
  sim::Simulator s(trace, policy);
  std::uint64_t logStarts = 0, logResumes = 0, logSuspensions = 0;
  s.observers().onStateChange([&](const sim::Simulator&, JobId,
                                  sim::JobState from, sim::JobState to) {
    if (to == sim::JobState::Running)
      (from == sim::JobState::Queued ? logStarts : logResumes)++;
    if (from == sim::JobState::Running && to != sim::JobState::Finished)
      ++logSuspensions;
  });
  s.run();

  const obs::Counters& c = s.counters();
  EXPECT_EQ(c.value(Counter::SimEvents), s.eventsProcessed());
  EXPECT_EQ(c.value(Counter::SimStarts), logStarts);
  EXPECT_EQ(c.value(Counter::SimResumes), logResumes);
  EXPECT_EQ(c.value(Counter::SimSuspensions), logSuspensions);
  EXPECT_EQ(c.value(Counter::SimSuspensions), s.totalSuspensions());
  std::uint64_t byCategory = 0;
  for (const std::uint64_t v : c.suspensionsByCategory()) byCategory += v;
  EXPECT_EQ(byCategory, c.value(Counter::SimSuspensions));
}

// --- sink integration through the facade ------------------------------------

TEST(TraceGate, SinkCallsOnlyHappenWhenCompiledIn) {
  const auto trace = workload::generateTrace(workload::sdscConfig(150, 11));
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::SelectiveSuspension;
  obs::CountingSink sink;
  core::SimulationOptions options;
  options.traceSink = &sink;
  const metrics::RunStats stats = core::runSimulation(trace, spec, options);
  EXPECT_TRUE(stats.counters.anyNonZero());  // counters flow in every build
  if (obs::kTraceCompiledIn) {
    EXPECT_GT(sink.count(), 0u);
  } else {
    EXPECT_EQ(sink.count(), 0u) << "disabled build must make no sink calls";
  }
}

TEST(TraceGate, ChromeTraceOfARunValidates) {
  const auto trace = workload::generateTrace(workload::ctcConfig(120, 5));
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::SelectiveSuspension;
  std::ostringstream os;
  {
    obs::ChromeTraceSink sink(os);
    core::SimulationOptions options;
    options.traceSink = &sink;
    (void)core::runSimulation(trace, spec, options);
    if (obs::kTraceCompiledIn) {
      EXPECT_GT(sink.eventCount(), 0u);
    }
  }
  std::string error;
  EXPECT_TRUE(metrics::validateJson(os.str(), &error)) << error;
}

// --- counters vs. the kernel's golden equivalence ---------------------------

/// The acceptance bar: on the same workload, the production policy and its
/// check::referencePolicy lane must agree on every schedule-derived counter
/// — suspensions (total and per category) and backfill starts. Ledger/index
/// operation counts legitimately differ (they measure the kernel's internal
/// work, not the schedule) and are excluded.
TEST(KernelModeCounters, SuspensionAndBackfillCountsAreModeInvariant) {
  const auto trace = workload::generateTrace(workload::sdscConfig(400, 42));
  std::vector<core::PolicySpec> specs;
  {
    core::PolicySpec easy;
    easy.kind = core::PolicyKind::Easy;
    specs.push_back(easy);
    core::PolicySpec ss;
    ss.kind = core::PolicyKind::SelectiveSuspension;
    specs.push_back(ss);
    core::PolicySpec depth;
    depth.kind = core::PolicyKind::DepthBackfill;
    specs.push_back(depth);
    core::PolicySpec is;
    is.kind = core::PolicyKind::ImmediateService;
    specs.push_back(is);
  }
  for (const core::PolicySpec& spec : specs) {
    const metrics::RunStats production = core::runSimulation(trace, spec);
    const metrics::RunStats reference =
        core::runSimulation(trace, check::referencePolicy(spec));

    EXPECT_EQ(production.counters.value(Counter::SimSuspensions),
              reference.counters.value(Counter::SimSuspensions))
        << production.policyName;
    EXPECT_EQ(production.counters.suspensionsByCategory(),
              reference.counters.suspensionsByCategory())
        << production.policyName;
    EXPECT_EQ(production.counters.value(Counter::BackfillStarts),
              reference.counters.value(Counter::BackfillStarts))
        << production.policyName;
    EXPECT_EQ(production.counters.value(Counter::SimSuspensions),
              production.suspensions)
        << production.policyName;
    EXPECT_EQ(production.counters.value(Counter::SimStarts),
              reference.counters.value(Counter::SimStarts))
        << production.policyName;
  }
}

// --- counters through the Runner --------------------------------------------

TEST(RunnerCounters, DeterministicAcrossThreadCounts) {
  const auto trace =
      core::shareTrace(workload::generateTrace(workload::sdscConfig(250, 9)));
  const auto batch = [&trace] {
    std::vector<core::RunRequest> requests;
    for (const core::PolicySpec& spec : core::ssSchemeSet()) {
      core::RunRequest request;
      request.trace = trace;
      request.spec = spec;
      requests.push_back(std::move(request));
    }
    return requests;
  };
  core::Runner one({.threads = 1});
  const auto baseline = one.runAll(batch());
  for (const std::size_t threads : {2u, 8u}) {
    core::Runner runner({.threads = threads});
    const auto results = runner.runAll(batch());
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i].stats.counters, baseline[i].stats.counters)
          << results[i].policyName << " at " << threads << " threads";
  }
}

TEST(RunnerCounters, CountersSurviveTheJsonRoundTrip) {
  const auto trace = workload::generateTrace(workload::sdscConfig(150, 4));
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::SelectiveSuspension;
  const metrics::RunStats stats = core::runSimulation(trace, spec);
  metrics::JsonOptions options;
  options.includeJobs = false;
  const std::string json = metrics::runStatsJson(stats, options);
  std::string error;
  EXPECT_TRUE(metrics::validateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.suspensions\""), std::string::npos);
}

}  // namespace
}  // namespace sps
