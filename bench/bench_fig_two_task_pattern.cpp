// Reproduces the Section IV-A theoretical analysis (Figs. 4-6): two
// identical machine-wide tasks submitted together, execution alternating
// under the suspension factor, plus the suspension-count law
// s = 2^(1/(n+1)).
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

struct TwoTaskResult {
  std::uint64_t suspensions;
  sps::Time finishFirst;
  sps::Time finishSecond;
};

TwoTaskResult runTwoTasks(double sf, sps::Time length) {
  using namespace sps;
  sched::SsConfig cfg;
  cfg.suspensionFactor = sf;
  sched::SelectiveSuspension policy(cfg);
  workload::Trace trace;
  trace.name = "two-task";
  trace.machineProcs = 8;
  for (JobId i = 0; i < 2; ++i) {
    workload::Job j;
    j.id = i;
    j.submit = 0;
    j.runtime = j.estimate = length;
    j.procs = 8;
    trace.jobs.push_back(j);
  }
  sim::Simulator s(trace, policy);
  s.run();
  return {s.totalSuspensions(),
          std::min(s.outcome(0).finish, s.outcome(1).finish),
          std::max(s.outcome(0).finish, s.outcome(1).finish)};
}

}  // namespace

int main() {
  using namespace sps;
  bench::banner("Two-task execution pattern vs suspension factor",
                "Figs. 4-6 and the Section IV-A analysis");

  const Time length = 4 * kHour;
  std::cout << "\nTwo identical tasks, each " << formatDuration(length)
            << " on the full machine, submitted together.\n"
            << "Theory: n suspensions for SF in [2^(1/(n+1)), 2^(1/n)); "
               "SF = 2 -> 0, SF = sqrt(2) -> 1, SF -> 1 -> unbounded "
               "(granularity-limited, Fig. 4).\n\n";

  Table t({"SF", "suspensions", "theory n", "first finish", "second finish"});
  const std::vector<double> sfs = {1.05, 1.1,
                                   std::pow(2.0, 0.25),  // n = 3
                                   std::cbrt(2.0),       // n = 2
                                   std::sqrt(2.0),       // n = 1
                                   1.7, 2.0, 3.0, 5.0};
  for (double sf : sfs) {
    const auto r = runTwoTasks(sf, length);
    const int theory =
        sf >= 2.0 ? 0
                  : static_cast<int>(std::ceil(std::log(2.0) / std::log(sf))) -
                        1;
    t.row()
        .cell(formatFixed(sf, 4))
        .cell(static_cast<std::int64_t>(r.suspensions))
        .cell(theory)
        .cell(formatDuration(r.finishFirst))
        .cell(formatDuration(r.finishSecond));
  }
  t.printAscii(std::cout);

  std::cout << "\nWith SF = 2 the tasks run strictly back-to-back "
               "(Fig. 6); smaller SF interleaves them at the preemption-"
               "routine granularity (Figs. 4-5).\n";
  return 0;
}
