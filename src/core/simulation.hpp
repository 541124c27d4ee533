// Simulation facade — the library's primary entry point.
//
// Wires a workload — a fixed trace OR a streaming JobSource — a scheduling
// policy, and an optional overhead model into one run and returns the
// collected metrics:
//
//   auto trace = sps::workload::generateTrace(sps::workload::ctcConfig());
//   sps::core::PolicySpec spec;
//   spec.kind = sps::core::PolicyKind::SelectiveSuspension;
//   spec.ss.suspensionFactor = 2.0;
//   auto stats = sps::core::runSimulation(trace, spec);
//
// Both overloads share one construction path (recorder, checker, timeline,
// progress, instrumentation), so batch callers (Runner, the CLI) and
// streaming callers (SchedulerService, DiffHarness, sps_fuzz) exercise the
// same wiring; the streaming overload replays a trace bit-identically to
// the batch one (the golden-equivalence discipline).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "check/check_config.hpp"
#include "check/invariants.hpp"
#include "obs/recorder.hpp"
#include "metrics/collector.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"
#include "sched/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "workload/job.hpp"

namespace sps::core {

class RunProgressListener;  // core/progress.hpp

// Policy descriptions and the factory live in sched/policy_factory.hpp —
// the registry every front end (CLI, fuzzer, presets) now shares. The
// core:: names remain the stable facade spelling.
using PolicyKind = sched::PolicyKind;
using PolicySpec = sched::PolicySpec;
using sched::makePolicy;
using sched::policyKindName;
using sched::policyLabel;

struct SimulationOptions {
  /// The simulator-facing knobs (overhead model, recorder), handed
  /// to sim::Simulator unchanged — this is the one documented options
  /// struct flowing CLI -> Runner -> Simulator. The recorder slot is owned
  /// by the run and overwritten.
  sim::SimulatorConfig sim{};
  /// Structured-trace destination. Events only flow in builds configured
  /// with -DSPS_TRACE=ON (obs::kTraceCompiledIn); counters are collected
  /// either way. The sink must be thread-safe when the same options are
  /// shared across core::Runner workers — the bundled sinks are.
  obs::TraceSink* traceSink = nullptr;
  /// Invariant oracle toggles (sps::check). Default: nothing armed, zero
  /// cost. With any checker enabled, runSimulation arms an
  /// InvariantChecker on the run and a violation throws InvariantError.
  check::CheckConfig check{};
  /// Sim-clock time-series sampling (obs::TimelineRecorder). Disabled by
  /// default; when enabled the series lands in RunStats::timeline and — if
  /// traceSink is set — as Chrome-trace counter tracks after the run.
  obs::TimelineConfig timeline{};
  /// Live progress subscriber (core::ProgressBoard::Ticket, or any
  /// RunProgressListener). nullptr = no publishing, zero cost. Invoked on
  /// the simulating thread every `progressStride` events.
  RunProgressListener* progress = nullptr;
  /// Events between progress publishes; keeps the listener off the
  /// per-event hot path.
  std::uint32_t progressStride = 4096;
  /// Instrumentation seam: called after the simulator is constructed and
  /// the run's checkers are armed, before the first dispatch — subscribe
  /// extra observers here (DiffHarness records transitions through it).
  std::function<void(sim::Simulator&)> instrument;
};

/// A monotone stream of jobs for the streaming entry point. next() yields
/// jobs in non-decreasing submit order (Simulator::submit rejects
/// regressions) until std::nullopt; ids are assigned by the simulator in
/// stream order.
class JobSource {
 public:
  virtual ~JobSource() = default;
  /// Workload label (lands in RunStats::traceName).
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t machineProcs() const = 0;
  virtual std::optional<workload::Job> next() = 0;
};

/// The trivial adapter: replay a validated trace as a stream. The trace
/// must outlive the source.
class TraceSource final : public JobSource {
 public:
  explicit TraceSource(const workload::Trace& trace) : trace_(&trace) {}
  [[nodiscard]] std::string name() const override { return trace_->name; }
  [[nodiscard]] std::uint32_t machineProcs() const override {
    return trace_->machineProcs;
  }
  std::optional<workload::Job> next() override {
    if (pos_ >= trace_->jobs.size()) return std::nullopt;
    return trace_->jobs[pos_++];
  }

 private:
  const workload::Trace* trace_;
  std::size_t pos_ = 0;
};

/// The wiring shared by every run shape: policy construction, the per-run
/// Recorder, checker/timeline/progress arming, and end-of-run collection.
/// runSimulation drives it to completion in one call; SchedulerService
/// holds one open and drives the simulator between protocol commands.
///
/// Lifecycle: construct (batch or streaming, mirroring the two Simulator
/// constructors), drive `simulator()` however the caller likes, then call
/// finish() exactly once — it drains the simulator (idempotent if the
/// caller already drained), finalizes any armed checkers, and collects
/// metrics. The harness must outlive nothing: it owns the policy, the
/// recorder, and the simulator.
class SimulationHarness {
 public:
  /// Batch shape: the whole trace pre-submitted.
  SimulationHarness(const workload::Trace& trace, const PolicySpec& spec,
                    const SimulationOptions& options);
  /// Batch shape over an already-built policy (how a check::referencePolicy
  /// lane runs); the run is labelled with the policy's name().
  SimulationHarness(const workload::Trace& trace,
                    std::unique_ptr<sim::SchedulingPolicy> policy,
                    const SimulationOptions& options);
  /// Streaming shape: an empty simulator; inject via simulator().submit().
  SimulationHarness(std::string traceName, std::uint32_t machineProcs,
                    const PolicySpec& spec, const SimulationOptions& options);

  SimulationHarness(const SimulationHarness&) = delete;
  SimulationHarness& operator=(const SimulationHarness&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return *simulator_; }

  /// Drain the simulator (no-op when already drained), finalize checkers,
  /// and collect the run's metrics. Call once, at the end.
  [[nodiscard]] metrics::RunStats finish();

 private:
  /// Post-construction arming shared by both constructors (checker,
  /// timeline, progress, then the caller's instrument seam — in that order,
  /// so instrument-registered observers fire after the oracle's).
  void arm(const SimulationOptions& options);

  std::unique_ptr<sim::SchedulingPolicy> policy_;
  obs::Recorder recorder_;
  std::optional<sim::Simulator> simulator_;
  std::optional<check::InvariantChecker> checker_;
  std::optional<obs::TimelineRecorder> timeline_;
  obs::TraceSink* traceSink_ = nullptr;
  std::string label_;
};

/// Run one simulation to completion and collect metrics (batch: the whole
/// trace is pre-submitted).
[[nodiscard]] metrics::RunStats runSimulation(
    const workload::Trace& trace, const PolicySpec& spec,
    const SimulationOptions& options = {});

/// Batch run of an already-built policy, e.g. a check::referencePolicy lane.
[[nodiscard]] metrics::RunStats runSimulation(
    const workload::Trace& trace,
    std::unique_ptr<sim::SchedulingPolicy> policy,
    const SimulationOptions& options = {});

/// Streaming entry point: pump the source through Simulator::submit with
/// minimum lookahead — the simulator advances to just before each job's
/// submit instant, then ingests it — and drain. Bit-identical to the batch
/// overload on the same workload.
[[nodiscard]] metrics::RunStats runSimulation(
    JobSource& source, const PolicySpec& spec,
    const SimulationOptions& options = {});

}  // namespace sps::core
