// Sample math, the span recorder and the timed policy wrapper.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace pb {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of nothing");
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.end());
  const double a = values[lo];
  if (hi == lo) return a;
  const double b = *std::min_element(
      values.begin() + static_cast<std::ptrdiff_t>(hi), values.end());
  return a + (b - a) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                      static_cast<double>(n - 1);
  // Samples at positions strictly greater than the rank.
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

double meanOf(const std::vector<double>& values, std::size_t begin,
              std::size_t end) {
  end = std::min(end, values.size());
  if (begin >= end) return 0.0;
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += values[i];
  return sum / static_cast<double>(end - begin);
}

bool BestSegments::add(const std::vector<double>& ns) {
  if (best_.empty()) {
    best_ = ns;
    return true;
  }
  if (ns.size() != best_.size()) return false;
  for (std::size_t i = 0; i < ns.size(); ++i)
    best_[i] = std::min(best_[i], ns[i]);
  return true;
}

double BestSegments::totalNs() const {
  double sum = 0.0;
  for (double v : best_) sum += v;
  return sum;
}

// --- HostPace ---------------------------------------------------------------

void HostPace::sample() {
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::int64_t start = nowNs();
    std::uint64_t x = state_;
    for (int i = 0; i < 2000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    state_ = x;  // kept, so the chain cannot be folded away
    const auto ns = static_cast<double>(nowNs() - start);
    best = pass == 0 ? ns : std::min(best, ns);
  }
  ns_.push_back(best);
}

double HostPace::loopNs() const {
  return ns_.empty() ? kReferenceNs : median(ns_);
}

double atReferencePace(double seconds, double loopNs) {
  return seconds * HostPace::kReferenceNs / loopNs;
}

// --- Tracer -----------------------------------------------------------------

int Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < aggs_.size(); ++i)
    if (aggs_[i].name == name) return static_cast<int>(i);
  aggs_.push_back(Aggregate{std::string(name)});
  return static_cast<int>(aggs_.size() - 1);
}

std::int64_t Tracer::keep(int name, std::uint64_t id, std::int64_t start) {
  if (kept_.size() >= exportCap_) {
    ++dropped_;
    return -1;
  }
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back().exported;
  kept_.push_back(Kept{name, parent, id, start, start});
  return static_cast<std::int64_t>(kept_.size() - 1);
}

void Tracer::begin(int name, std::uint64_t id) {
  const std::int64_t start = nowNs();
  const std::int64_t exported = keep(name, id, start);
  stack_.push_back(Frame{name, start, 0, exported, id});
}

void Tracer::close(int name, std::int64_t start, std::int64_t end,
                   std::int64_t childNs, std::int64_t exported) {
  const std::int64_t dur = end - start;
  Aggregate& agg = aggs_[static_cast<std::size_t>(name)];
  agg.totalNs += dur;
  agg.selfNs += dur - childNs;
  ++agg.count;
  if (!stack_.empty()) stack_.back().childNs += dur;
  if (exported >= 0) kept_[static_cast<std::size_t>(exported)].end = end;
}

std::int64_t Tracer::end() {
  const std::int64_t endNs = nowNs();
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const Frame f = stack_.back();
  stack_.pop_back();
  close(f.name, f.start, endNs, f.childNs, f.exported);
  return endNs - f.start;
}

void Tracer::child(int name, std::uint64_t id, std::int64_t startNs,
                   std::int64_t endNs) {
  const std::int64_t exported = keep(name, id, startNs);
  close(name, startNs, endNs, 0, exported);
}

std::int64_t Tracer::openStart() const {
  if (stack_.empty()) throw std::logic_error("Tracer: no open span");
  return stack_.back().start;
}

const Tracer::Aggregate& Tracer::aggregate(std::string_view name) const {
  static const Aggregate kNone{};
  for (const Aggregate& a : aggs_)
    if (a.name == name) return a;
  return kNone;
}

double Tracer::selfSeconds(std::string_view prefix) const {
  std::int64_t ns = 0;
  for (const Aggregate& a : aggs_)
    if (std::string_view(a.name).substr(0, prefix.size()) == prefix)
      ns += a.selfNs;
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::totalSeconds(std::string_view name) const {
  return static_cast<double>(aggregate(name).totalNs) * 1e-9;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = kept_.empty() ? 0 : kept_.front().start;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedSpans\":"
      << dropped_ << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\""
        << aggs_[static_cast<std::size_t>(k.name)].name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << formatNumber(static_cast<double>(k.start - origin) / 1e3)
        << ",\"dur\":" << formatNumber(static_cast<double>(k.end - k.start) / 1e3)
        << ",\"args\":{\"id\":" << k.id << ",\"span\":" << i
        << ",\"parent\":" << k.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- TimedPolicy ------------------------------------------------------------

TimedPolicy::TimedPolicy(const sps::sched::PolicySpec& spec, Tracer& tracer)
    : inner_(sps::sched::makePolicy(spec)),
      tracer_(tracer),
      start_(tracer.intern("sched.start")),
      arrival_(tracer.intern("sched.arrival")),
      completion_(tracer.intern("sched.completion")),
      drained_(tracer.intern("sched.drained")),
      timer_(tracer.intern("sched.timer")),
      cancel_(tracer.intern("sched.cancel")),
      end_(tracer.intern("sched.end")) {}

void TimedPolicy::onSimulationStart(sps::sim::Simulator& simulator) {
  tracer_.begin(start_, 0);
  inner_->onSimulationStart(simulator);
  tracer_.end();
  if (afterStart) afterStart(simulator);
}

void TimedPolicy::onJobArrival(sps::sim::Simulator& simulator,
                               sps::JobId job) {
  tracer_.begin(arrival_, job);
  inner_->onJobArrival(simulator, job);
  tracer_.end();
}

void TimedPolicy::onJobCompletion(sps::sim::Simulator& simulator,
                                  sps::JobId job) {
  tracer_.begin(completion_, job);
  inner_->onJobCompletion(simulator, job);
  tracer_.end();
}

void TimedPolicy::onSuspendDrained(sps::sim::Simulator& simulator,
                                   sps::JobId job) {
  tracer_.begin(drained_, job);
  inner_->onSuspendDrained(simulator, job);
  tracer_.end();
}

void TimedPolicy::onTimer(sps::sim::Simulator& simulator, std::uint64_t tag) {
  tracer_.begin(timer_, tag);
  inner_->onTimer(simulator, tag);
  tracer_.end();
}

void TimedPolicy::onJobCancelled(sps::sim::Simulator& simulator,
                                 sps::JobId job) {
  tracer_.begin(cancel_, job);
  inner_->onJobCancelled(simulator, job);
  tracer_.end();
}

void TimedPolicy::onSimulationEnd(sps::sim::Simulator& simulator) {
  tracer_.begin(end_, 0);
  inner_->onSimulationEnd(simulator);
  tracer_.end();
}

}  // namespace pb
