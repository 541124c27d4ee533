#include "workload/job.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace sps::workload {

void validateTrace(const Trace& trace) {
  if (trace.machineProcs == 0)
    throw InputError("trace '" + trace.name + "': machineProcs == 0");
  Time prevSubmit = std::numeric_limits<Time>::min();
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const Job& j = trace.jobs[i];
    // The message context is formatted only on failure: building it for
    // every job made validation the largest cost of constructing a batch
    // simulator.
    const auto fail = [&](const char* what) {
      std::ostringstream ctx;
      ctx << "trace '" << trace.name << "' job index " << i << " (id " << j.id
          << "): " << what;
      throw InputError(ctx.str());
    };
    if (j.id != static_cast<JobId>(i)) fail("ids must be dense 0..n-1");
    if (j.submit < prevSubmit) fail("jobs must be sorted by submit time");
    if (j.runtime <= 0) fail("runtime must be positive");
    if (j.estimate < j.runtime)
      fail("estimate below runtime (jobs are killed at their wall-clock "
           "limit; clamp first)");
    if (j.procs == 0) fail("procs must be >= 1");
    if (j.procs > trace.machineProcs) fail("procs exceed machine size");
    prevSubmit = j.submit;
  }
}

double totalWork(const Trace& trace) {
  double w = 0.0;
  for (const Job& j : trace.jobs)
    w += static_cast<double>(j.runtime) * static_cast<double>(j.procs);
  return w;
}

double offeredLoad(const Trace& trace) {
  if (trace.jobs.empty() || trace.machineProcs == 0) return 0.0;
  const Time first = trace.jobs.front().submit;
  Time last = first;
  for (const Job& j : trace.jobs) last = std::max(last, j.submit + j.runtime);
  const double span = static_cast<double>(last - first);
  if (span <= 0.0) return 0.0;
  return totalWork(trace) / (static_cast<double>(trace.machineProcs) * span);
}

}  // namespace sps::workload
