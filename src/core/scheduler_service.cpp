#include "core/scheduler_service.hpp"

#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.hpp"

namespace sps::core {

namespace {

/// Reply helpers: every command answers exactly one `ok ...` or
/// `err <verb>: ...` line.
std::string err(const char* verb, const std::string& why) {
  return std::string("err ") + verb + ": " + why;
}

/// Times that may legitimately be "not yet" (kNoTime) print as '-'.
void putTime(std::ostream& os, Time t) {
  if (t == kNoTime) os << '-';
  else os << t;
}

}  // namespace

SchedulerService::SchedulerService(ServiceConfig config)
    : harness_(std::move(config.traceName), config.machineProcs, config.spec,
               config.options) {}

std::string SchedulerService::processLine(std::string_view line) {
  std::istringstream in{std::string(line)};
  std::string verb;
  if (!(in >> verb) || verb[0] == '#') return "";  // blank / comment
  if (verb == "submit") return doSubmit(in);
  if (verb == "cancel") return doCancel(in);
  if (verb == "query") return doQuery(in);
  if (verb == "stats") return doStats();
  if (verb == "drain") return doDrain();
  return err("parse", "unknown verb '" + verb + "'");
}

std::string SchedulerService::doSubmit(std::istream& args) {
  if (drained()) return err("submit", "run already drained");
  workload::Job job;
  if (!(args >> job.submit >> job.procs >> job.runtime >> job.estimate))
    return err("submit",
               "expected: submit <time> <procs> <runtime> <estimate> [memMb]");
  if (!(args >> job.memoryMb)) job.memoryMb = 0;  // optional field
  try {
    // Bounded lookahead: the submit line extends the known-input horizon to
    // job.submit, so the simulator may now advance to the instant before it
    // (events AT the submit instant must see the arrival already enqueued).
    // A submit in the simulated past is rejected by Simulator::submit
    // before any state changes, so runUntil first is safe: job.submit - 1
    // below now() makes runUntil a no-op.
    if (job.submit > harness_.simulator().now())
      harness_.simulator().runUntil(job.submit - 1);
    const JobId id = harness_.simulator().submit(job);
    ++submissions_;
    return "ok " + std::to_string(id);
  } catch (const InputError& e) {
    return err("submit", e.what());
  }
}

std::string SchedulerService::doCancel(std::istream& args) {
  if (drained()) return err("cancel", "run already drained");
  JobId id = kInvalidJob;
  if (!(args >> id)) return err("cancel", "expected: cancel <id>");
  if (id >= harness_.simulator().trace().jobs.size())
    return err("cancel", "no such job " + std::to_string(id));
  if (!harness_.simulator().cancelJob(id))
    return err("cancel",
               "job " + std::to_string(id) + " not cancellable (state " +
                   sim::jobStateName(harness_.simulator().state(id)) + ")");
  return "ok cancelled " + std::to_string(id);
}

std::string SchedulerService::doQuery(std::istream& args) {
  JobId id = kInvalidJob;
  if (!(args >> id)) return err("query", "expected: query <id>");
  const sim::Simulator& s = harness_.simulator();
  if (id >= s.trace().jobs.size())
    return err("query", "no such job " + std::to_string(id));
  std::ostringstream os;
  os << "ok job " << id << " state " << sim::jobStateName(s.state(id))
     << " submit " << s.job(id).submit << " start ";
  putTime(os, s.outcome(id).firstStart);
  os << " finish ";
  putTime(os, s.outcome(id).finish);
  return os.str();
}

std::string SchedulerService::doStats() {
  const sim::Simulator& s = harness_.simulator();
  std::ostringstream os;
  os << "ok now " << s.now() << " events " << s.eventsProcessed()
     << " submitted " << submissions_ << " unfinished " << s.unfinishedJobs()
     << " free " << s.freeCount();
  return os.str();
}

std::string SchedulerService::doDrain() {
  if (drained()) return err("drain", "run already drained");
  const metrics::RunStats stats = finish();
  std::ostringstream os;
  os << "ok drained jobs " << stats.jobs.size() << " events "
     << stats.eventsProcessed << " span " << stats.span << " util "
     << stats.utilization;
  return os.str();
}

metrics::RunStats SchedulerService::finish() {
  if (!stats_) stats_ = harness_.finish();
  return *stats_;
}

metrics::RunStats SchedulerService::serve(std::istream& in,
                                          std::ostream& out) {
  // Reader thread -> bounded queue -> this thread. The bound is
  // backpressure, not correctness: when the simulator falls behind, the
  // reader blocks instead of buffering the whole input; commands still
  // execute strictly in input order on this thread only.
  constexpr std::size_t kQueueBound = 1024;
  std::mutex mutex;
  std::condition_variable readable;
  std::condition_variable writable;
  std::deque<std::string> pending;
  bool eof = false;

  std::thread reader([&] {
    std::string line;
    while (std::getline(in, line)) {
      std::unique_lock lock(mutex);
      writable.wait(lock, [&] { return pending.size() < kQueueBound; });
      pending.push_back(std::move(line));
      readable.notify_one();
    }
    std::lock_guard lock(mutex);
    eof = true;
    readable.notify_one();
  });

  for (;;) {
    std::string line;
    {
      std::unique_lock lock(mutex);
      readable.wait(lock, [&] { return eof || !pending.empty(); });
      if (pending.empty()) break;  // eof and nothing left
      line = std::move(pending.front());
      pending.pop_front();
      writable.notify_one();
    }
    const std::string reply = processLine(line);
    if (!reply.empty()) out << reply << '\n' << std::flush;
  }
  reader.join();
  // End of input finishes the run exactly as an explicit `drain` does.
  return finish();
}

}  // namespace sps::core
