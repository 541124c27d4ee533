// Self-tests of the benchmark's own machinery: the percentile,
// sample-count, fastest-repeat and host-pace math, the metric-name grammar, the
// result line, the span recorder's self-time arithmetic, and negative
// tests proving the output check fires on a corrupted RunStats and on
// malformed service replies.
//
//   perfbench_selftest [scratch-dir]   (exit 0 = all passed)
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/scheduler_service.hpp"
#include "core/simulation.hpp"
#include "workload/synthetic.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::cerr << __FILE__ << ':' << __LINE__ << ": FAILED " #cond "\n"; \
    }                                                                  \
  } while (0)

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void testPercentiles() {
  using pb::percentile;
  EXPECT(percentile({5, 1, 4, 2, 3}, 50) == 3);
  EXPECT(percentile({5, 1, 4, 2, 3}, 0) == 1);
  EXPECT(percentile({5, 1, 4, 2, 3}, 100) == 5);
  EXPECT(percentile({5, 1, 4, 2, 3}, 25) == 2);
  EXPECT(percentile({1, 2}, 50) == 1.5);
  EXPECT(percentile({7}, 99) == 7);
  std::vector<double> hundredOne;
  for (int i = 0; i <= 100; ++i) hundredOne.push_back(100 - i);
  EXPECT(percentile(hundredOne, 99) == 99);
  EXPECT(std::abs(percentile(hundredOne, 99.5) - 99.5) < 1e-12);
  EXPECT(pb::median({4, 1, 3, 2}) == 2.5);
  EXPECT(throws([] { (void)percentile({}, 50); }));

  // Samples strictly above the interpolated rank q/100 * (n-1).
  EXPECT(pb::samplesBeyond(1000, 99) == 10);
  EXPECT(pb::samplesBeyond(1001, 99) == 10);
  EXPECT(pb::samplesBeyond(100, 99) == 1);
  EXPECT(pb::samplesBeyond(100, 50) == 50);
  EXPECT(pb::samplesBeyond(1, 50) == 0);
  EXPECT(pb::samplesBeyond(0, 99) == 0);

  EXPECT(pb::meanOf({1, 2, 3, 4}, 1, 3) == 2.5);
  EXPECT(pb::meanOf({1, 2}, 2, 2) == 0.0);
  EXPECT(pb::meanOf({1, 2}, 0, 10) == 1.5);
}

void testBestSegments() {
  pb::BestSegments best;
  EXPECT(best.ns().empty() && best.totalNs() == 0.0);
  EXPECT(best.add({5, 1, 7}));
  EXPECT(best.add({3, 4, 9}));
  EXPECT(best.add({6, 2, 2}));
  EXPECT(best.ns() == std::vector<double>({3, 1, 2}));
  EXPECT(best.totalNs() == 6.0);
  // A run that did a different number of operations is refused untouched.
  EXPECT(!best.add({0, 0}));
  EXPECT(best.ns() == std::vector<double>({3, 1, 2}));
}

void testHostPace() {
  pb::HostPace pace;
  EXPECT(pace.samples() == 0 && pace.loopNs() == pb::HostPace::kReferenceNs);
  pace.sample();
  EXPECT(pace.samples() == 1 && pace.loopNs() > 0.0);
  // A host at half the reference speed doubles every wall time, and the
  // scaling halves it back.
  const double ref = pb::HostPace::kReferenceNs;
  EXPECT(pb::atReferencePace(2.0, ref) == 2.0);
  EXPECT(pb::atReferencePace(2.0, 2 * ref) == 1.0);
  EXPECT(pb::atReferencePace(2.0, ref / 2) == 4.0);
}

void testMetricNames() {
  using pb::validMetricName;
  EXPECT(validMetricName("jobs_per_s"));
  EXPECT(validMetricName("sim.step_ns_p50"));
  EXPECT(validMetricName("counter.kernel.index.fullSorts"));
  EXPECT(validMetricName("9lives-x"));
  EXPECT(validMetricName(std::string(64, 'a')));
  EXPECT(!validMetricName(std::string(65, 'a')));
  EXPECT(!validMetricName(""));
  EXPECT(!validMetricName(".hidden"));
  EXPECT(!validMetricName("_x"));
  EXPECT(!validMetricName("-x"));
  EXPECT(!validMetricName("jobs/s"));
  EXPECT(!validMetricName("a b"));
  EXPECT(!validMetricName("x\"y"));

  EXPECT(pb::formatNumber(0.1) == "0.1");
  EXPECT(pb::formatNumber(1234567.125) == "1234567.125");
  EXPECT(throws([] { (void)pb::formatNumber(std::nan("")); }));
  EXPECT(throws([] { (void)pb::formatNumber(INFINITY); }));

  const std::string line =
      pb::resultLine(true, 10, 0, {{"setup_s", 0.5, "s", 3}, {"a.b", 2, "count", 0}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"a.b\": "
         "{\"value\": 2, \"unit\": \"count\"}}}");
  EXPECT(throws([] { (void)pb::resultLine(true, 1, 0, {{"bad name", 1, "s", 0}}); }));
}

void testTracer(const std::string& dir) {
  pb::Tracer tr(3);
  const int outer = tr.intern("outer");
  const int inner = tr.intern("inner.a");
  const int mark = tr.intern("inner.b");
  EXPECT(tr.intern("outer") == outer);
  tr.begin(outer, 7);
  tr.begin(inner, 1);
  tr.end();
  const std::int64_t s = tr.openStart();
  tr.child(mark, 2, s, s + 1000);
  tr.begin(inner, 3);  // beyond the export cap of 3
  tr.end();
  const std::int64_t total = tr.end();
  const auto& o = tr.aggregate("outer");
  const auto& a = tr.aggregate("inner.a");
  const auto& b = tr.aggregate("inner.b");
  EXPECT(o.count == 1 && a.count == 2 && b.count == 1);
  EXPECT(o.totalNs == total);
  EXPECT(b.totalNs == 1000 && b.selfNs == 1000);
  EXPECT(o.selfNs == o.totalNs - a.totalNs - b.totalNs);
  EXPECT(a.selfNs == a.totalNs);
  EXPECT(std::abs(tr.selfSeconds("inner.") - (a.selfNs + b.selfNs) * 1e-9) < 1e-15);
  EXPECT(tr.dropped() == 1);
  EXPECT(throws([&] { tr.end(); }));

  const std::string path = dir + "/perfbench-selftest-trace.json";
  EXPECT(tr.writeChromeTrace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT(text.str().find("\"name\":\"outer\",\"ph\":\"X\"") != std::string::npos);
  EXPECT(text.str().find("\"droppedSpans\":1") != std::string::npos);
  std::remove(path.c_str());
}

sps::workload::Trace smallTrace() {
  sps::workload::SyntheticConfig cfg = sps::workload::sdscConfig(300, 5);
  cfg.offeredLoad = 0.95;
  return sps::workload::generateTrace(cfg);
}

/// Failures the output check reports for `stats` against `trace`.
std::uint64_t failuresOf(const sps::workload::Trace& trace,
                         const sps::metrics::RunStats& stats,
                         std::uint32_t unfinished = 0) {
  pb::CheckTally tally;
  pb::checkRunStats(trace, stats, unfinished, tally);
  EXPECT(tally.attempted == trace.jobs.size());
  return tally.failed;
}

void testRunStatsCheck() {
  const sps::workload::Trace trace = smallTrace();
  const sps::metrics::RunStats good =
      sps::core::runSimulation(trace, sps::sched::specFromToken("ss:2"));
  EXPECT(failuresOf(trace, good) == 0);

  auto corrupt = [&](auto mutate) {
    sps::metrics::RunStats bad = good;
    mutate(bad);
    return failuresOf(trace, bad);
  };
  EXPECT(corrupt([](auto& s) { s.jobs.pop_back(); }) >= 1);
  EXPECT(corrupt([](auto& s) { s.jobs[3] = s.jobs[4]; }) >= 1);
  EXPECT(corrupt([](auto& s) { s.jobs[10].finish -= s.jobs[10].runtime + 1; }) >= 1);
  EXPECT(corrupt([](auto& s) { s.jobs[11].firstStart = s.jobs[11].submit - 1; }) >= 1);
  EXPECT(corrupt([](auto& s) { s.jobs[12].finish = sps::kNoTime; }) >= 1);
  EXPECT(corrupt([](auto& s) { s.jobs[13].procs += 1; }) >= 1);
  EXPECT(corrupt([](auto& s) { s.utilization *= 1.0001; }) == 300);
  EXPECT(corrupt([](auto& s) { s.utilization = 0.0; }) == 300);
  EXPECT(corrupt([](auto& s) { s.utilization = 1.5; }) == 300);
  EXPECT(corrupt([](auto& s) { s.span += 1000; }) == 300);
  EXPECT(failuresOf(trace, good, 2) == 2);

  // Cancelled jobs must be absent, and are not counted as missing.
  std::vector<bool> cancelled(trace.jobs.size(), false);
  cancelled[0] = true;
  pb::CheckTally tally;
  pb::checkRunStats(trace, good, 0, tally, &cancelled);
  EXPECT(tally.failed >= 1);

  // Digests: equal for equal runs, and name what differs.
  std::string why;
  EXPECT(pb::sameDigest(pb::digestOf(good), pb::digestOf(good), false, &why));
  sps::metrics::RunStats moved = good;
  moved.jobs[5].finish += 1;
  EXPECT(!pb::sameDigest(pb::digestOf(good), pb::digestOf(moved), false, &why));
  EXPECT(why == "per-job records");
  moved = good;
  moved.counters.inc(sps::obs::Counter::VictimTests);
  EXPECT(!pb::sameDigest(pb::digestOf(good), pb::digestOf(moved), false, &why));
  EXPECT(why == "counter.policy.victimTests");
  moved = good;
  moved.counters.inc(sps::obs::Counter::CheckEpochAudits);
  EXPECT(!pb::sameDigest(pb::digestOf(good), pb::digestOf(moved), false, &why));
  EXPECT(pb::sameDigest(pb::digestOf(good), pb::digestOf(moved), true, &why));
}

void testReplies() {
  using pb::Verb;
  const sps::workload::Trace trace = smallTrace();
  sps::core::ServiceConfig cfg;
  cfg.machineProcs = trace.machineProcs;
  cfg.spec = sps::sched::specFromToken("easy");
  sps::core::SchedulerService service(cfg);
  bool refused = true;

  // Every reply the service really gives is well formed.
  for (std::uint64_t k = 0; k < 40; ++k) {
    const auto& j = trace.jobs[k];
    std::ostringstream line;
    line << "submit " << j.submit << ' ' << j.procs << ' ' << j.runtime << ' '
         << j.estimate;
    EXPECT(pb::replyWellFormed(Verb::Submit, service.processLine(line.str()),
                               k, &refused));
    EXPECT(!refused);
  }
  EXPECT(pb::replyWellFormed(Verb::Query, service.processLine("query 3"), 3, nullptr));
  EXPECT(pb::replyWellFormed(Verb::Stats, service.processLine("stats"), 0, nullptr));
  const std::string cancelReply = service.processLine("cancel 39");
  EXPECT(pb::replyWellFormed(Verb::Cancel, cancelReply, 39, &refused));
  EXPECT(pb::replyWellFormed(Verb::Drain, service.processLine("drain"), 0, nullptr));

  // Refusals are well formed and flagged.
  EXPECT(pb::replyWellFormed(Verb::Cancel,
                             "err cancel: job 7 not cancellable (state Running)",
                             7, &refused));
  EXPECT(refused);
  EXPECT(pb::replyWellFormed(Verb::Cancel, "ok cancelled 7", 7, &refused));
  EXPECT(!refused);

  // Malformed or failed replies are caught.
  EXPECT(!pb::replyWellFormed(Verb::Submit, "ok 1", 0, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Submit, "ok", 0, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Submit, "err submit: run already drained", 0, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Cancel, "err cancel: no such job 7", 7, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Cancel, "ok cancelled 8", 7, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Query, "ok job 3 state Queued submit 5 start x finish -", 3, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Query, "ok job 4 state Queued submit 5 start - finish -", 3, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Query, "err query: no such job 3", 3, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Stats, "ok now 5 events", 0, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Stats, "ok now 5 events 1 submitted 1 unfinished -1 free 4", 0, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Drain, "ok drained jobs 3 events 9 span 5", 0, nullptr));
  EXPECT(!pb::replyWellFormed(Verb::Drain, "", 0, nullptr));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  testPercentiles();
  testBestSegments();
  testHostPace();
  testMetricNames();
  testTracer(dir);
  testRunStatsCheck();
  testReplies();
  if (failures != 0) {
    std::cerr << "perfbench_selftest: " << failures << " check(s) failed\n";
    return 1;
  }
  std::cerr << "perfbench_selftest: all checks passed\n";
  return 0;
}
