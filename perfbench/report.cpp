// Output checks, the result line, the host fingerprint and the build guard.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pb {

void CheckTally::fail(std::uint64_t n, std::string why) {
  failed += n;
  if (notes.size() < 8) notes.push_back(std::move(why));
}

void CheckTally::addFailures(const CheckTally& other) {
  failed += other.failed;
  for (const std::string& note : other.notes)
    if (notes.size() < 8) notes.push_back(note);
}

void checkRunStats(const sps::workload::Trace& input,
                   const sps::metrics::RunStats& stats,
                   std::uint32_t unfinished, CheckTally& tally,
                   const std::vector<bool>* cancelled) {
  const std::size_t n = input.jobs.size();
  const auto isCancelled = [&](std::size_t id) {
    return cancelled != nullptr && id < cancelled->size() && (*cancelled)[id];
  };
  tally.attempted += n;
  if (unfinished != 0)
    tally.fail(unfinished, std::to_string(unfinished) + " jobs unfinished");

  std::vector<bool> seen(n, false);
  bool recordsSound = true;
  double work = 0.0;  // sum of runtime x procs over the expected jobs
  std::size_t expected = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (isCancelled(id)) continue;
    ++expected;
    work += static_cast<double>(input.jobs[id].runtime) *
            static_cast<double>(input.jobs[id].procs);
  }
  for (const sps::metrics::JobResult& r : stats.jobs) {
    const std::size_t id = r.id;
    if (id >= n || seen[id] || isCancelled(id)) {
      recordsSound = false;
      tally.fail(1, "unexpected job record " + std::to_string(id));
      continue;
    }
    seen[id] = true;
    const sps::workload::Job& j = input.jobs[id];
    // Times are validated before the slowdown arithmetic reads them.
    const bool ok = r.submit == j.submit && r.runtime == j.runtime &&
                    r.estimate == j.estimate && r.procs == j.procs &&
                    r.firstStart != sps::kNoTime && r.firstStart >= r.submit &&
                    r.finish != sps::kNoTime &&
                    r.finish >= r.firstStart + r.runtime &&
                    sps::metrics::boundedSlowdown(r) >= 1.0;
    if (!ok) {
      recordsSound = false;
      tally.fail(1, "job " + std::to_string(id) + " record unsound");
    }
  }
  std::size_t missing = 0;
  for (std::size_t id = 0; id < n; ++id)
    if (!seen[id] && !isCancelled(id)) ++missing;
  if (missing != 0)
    tally.fail(missing, std::to_string(missing) + " jobs never finished");

  // Run-level figures: when one is wrong every job's share of it is, so
  // the whole run counts as failed.
  if (expected == 0 || !recordsSound) return;
  const double bsld = stats.meanBoundedSlowdown();
  const double capacity = static_cast<double>(input.machineProcs) *
                          static_cast<double>(std::max<sps::Time>(stats.span, 1));
  const double busy = stats.utilization * capacity;
  if (stats.jobs.size() != expected)
    tally.fail(expected, "RunStats holds " + std::to_string(stats.jobs.size()) +
                             " jobs, input has " + std::to_string(expected));
  else if (!(std::isfinite(bsld) && bsld >= 1.0))
    tally.fail(expected, "mean bounded slowdown below 1");
  else if (!(stats.utilization > 0.0 && stats.utilization <= 1.0))
    tally.fail(expected, "utilization outside (0, 100]");
  else if (std::abs(busy - work) > 1e-9 * work)
    tally.fail(expected, "busy processor-seconds " + formatNumber(busy) +
                             " != sum(runtime x procs) " + formatNumber(work));
}

namespace {

std::vector<std::string> words(std::string_view s) {
  std::vector<std::string> out;
  std::istringstream in{std::string(s)};
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

bool isUint(const std::string& s) {
  std::uint64_t v = 0;
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  return !s.empty() && r.ec == std::errc() && r.ptr == s.data() + s.size();
}

bool isTime(const std::string& s) {
  if (s == "-") return true;
  std::int64_t v = 0;
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  return !s.empty() && r.ec == std::errc() && r.ptr == s.data() + s.size();
}

bool isReal(const std::string& s) {
  double v = 0;
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  return !s.empty() && r.ec == std::errc() && r.ptr == s.data() + s.size();
}

/// w matches `ok <key0> <val> <key1> <val> ...` from index `from`.
bool keyed(const std::vector<std::string>& w, std::size_t from,
           std::initializer_list<std::pair<const char*, bool (*)(const std::string&)>>
               fields) {
  if (w.size() != from + 2 * fields.size()) return false;
  std::size_t i = from;
  for (const auto& [key, valid] : fields) {
    if (w[i] != key || !valid(w[i + 1])) return false;
    i += 2;
  }
  return true;
}

}  // namespace

bool replyWellFormed(Verb verb, std::string_view reply,
                     std::uint64_t expectId, bool* refused) {
  if (refused != nullptr) *refused = false;
  const std::vector<std::string> w = words(reply);
  const std::string id = std::to_string(expectId);
  switch (verb) {
    case Verb::Submit:
      return w.size() == 2 && w[0] == "ok" && w[1] == id;
    case Verb::Cancel:
      if (w.size() == 3 && w[0] == "ok" && w[1] == "cancelled" && w[2] == id)
        return true;
      // "err cancel: job <id> not cancellable (state <S>)"
      if (w.size() == 8 && w[0] == "err" && w[1] == "cancel:" &&
          w[2] == "job" && w[3] == id && w[4] == "not" &&
          w[5] == "cancellable" && w[6] == "(state" && w[7].size() > 1 &&
          w[7].back() == ')') {
        if (refused != nullptr) *refused = true;
        return true;
      }
      return false;
    case Verb::Query:
      return w.size() == 11 && w[0] == "ok" && w[1] == "job" && w[2] == id &&
             keyed(w, 3, {{"state", [](const std::string& s) { return !s.empty(); }},
                          {"submit", isTime},
                          {"start", isTime},
                          {"finish", isTime}});
    case Verb::Stats:
      return !w.empty() && w[0] == "ok" &&
             keyed(w, 1, {{"now", isTime},
                          {"events", isUint},
                          {"submitted", isUint},
                          {"unfinished", isUint},
                          {"free", isUint}});
    case Verb::Drain:
      return w.size() >= 2 && w[0] == "ok" && w[1] == "drained" &&
             keyed(w, 2, {{"jobs", isUint},
                          {"events", isUint},
                          {"span", isTime},
                          {"util", isReal}});
  }
  return false;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

namespace {

template <typename T>
std::uint64_t mix(std::uint64_t hash, const T& value) {
  return fnv1a(&value, sizeof value, hash);
}

}  // namespace

std::uint64_t traceHash(const sps::workload::Trace& trace) {
  std::uint64_t h = fnv1a(trace.name.data(), trace.name.size());
  h = mix(h, trace.machineProcs);
  for (const sps::workload::Job& j : trace.jobs) {
    h = mix(h, j.id);
    h = mix(h, j.submit);
    h = mix(h, j.runtime);
    h = mix(h, j.estimate);
    h = mix(h, j.procs);
    h = mix(h, j.memoryMb);
  }
  return h;
}

RunDigest digestOf(const sps::metrics::RunStats& stats) {
  RunDigest d;
  d.policyName = stats.policyName;
  d.traceName = stats.traceName;
  d.jobs = stats.jobs.size();
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const sps::metrics::JobResult& r : stats.jobs) {
    h = mix(h, r.id);
    h = mix(h, r.submit);
    h = mix(h, r.runtime);
    h = mix(h, r.estimate);
    h = mix(h, r.procs);
    h = mix(h, r.firstStart);
    h = mix(h, r.finish);
    h = mix(h, r.suspendCount);
    h = mix(h, r.overheadTotal);
  }
  d.jobsHash = h;
  d.utilization = stats.utilization;
  d.usefulUtilization = stats.usefulUtilization;
  d.steadyUtilization = stats.steadyUtilization;
  d.span = stats.span;
  d.suspensions = stats.suspensions;
  d.events = stats.eventsProcessed;
  d.counters = stats.counters;
  return d;
}

bool sameDigest(const RunDigest& a, const RunDigest& b,
                bool ignoreCheckCounters, std::string* why) {
  const auto differ = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.policyName != b.policyName) return differ("policyName");
  if (a.traceName != b.traceName) return differ("traceName");
  if (a.jobs != b.jobs) return differ("job count");
  if (a.jobsHash != b.jobsHash) return differ("per-job records");
  if (a.utilization != b.utilization) return differ("utilization");
  if (a.usefulUtilization != b.usefulUtilization)
    return differ("usefulUtilization");
  if (a.steadyUtilization != b.steadyUtilization)
    return differ("steadyUtilization");
  if (a.span != b.span) return differ("span");
  if (a.suspensions != b.suspensions) return differ("suspensions");
  if (a.events != b.events) return differ("sim.events");
  for (std::size_t i = 0; i < sps::obs::kCounterCount; ++i) {
    const auto c = static_cast<sps::obs::Counter>(i);
    if (ignoreCheckCounters && (c == sps::obs::Counter::CheckTransitionAudits ||
                                c == sps::obs::Counter::CheckEpochAudits))
      continue;
    if (a.counters.value(c) != b.counters.value(c))
      return differ(std::string("counter.") + sps::obs::counterName(c));
  }
  if (a.counters.suspensionsByCategory() != b.counters.suspensionsByCategory())
    return differ("suspensions by category");
  return true;
}

bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

std::string formatNumber(double value) {
  if (!std::isfinite(value))
    throw std::invalid_argument("metric value is not finite");
  // Whole numbers (counts) print as integers, everything else in its
  // shortest round-trip form.
  if (std::abs(value) < 9007199254740992.0 && value == std::trunc(value))
    return std::to_string(static_cast<std::int64_t>(value));
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, r.ptr);
}

std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!validMetricName(m.name))
      throw std::invalid_argument("bad metric name: " + m.name);
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << formatNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hostFingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream os;
  os << "cpu=\"" << cpu << "\" nproc=" << std::thread::hardware_concurrency()
     << " compiler=\"" << PB_COMPILER << "\" build=" << PB_BUILD_TYPE
     << " flags=\"" << PB_BUILD_FLAGS << '"';
  return os.str();
}

std::string buildRefusal() {
  if (sps::obs::kTraceCompiledIn) return "SPS_TRACE instrumentation compiled in";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#endif
  const std::string flags = PB_BUILD_FLAGS;
  for (const char* bad : {"-fsanitize", "--coverage", "-fprofile-arcs",
                          "-ftest-coverage", "-fprofile-instr-generate"})
    if (flags.find(bad) != std::string::npos)
      return std::string("instrumented build (") + bad + ")";
  return "";
}

}  // namespace pb
