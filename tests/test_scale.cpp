// Scale-out smoke: a 100k-processor machine under every policy token, in
// both lanes (production and check::referencePolicy), with the full
// sps::check oracle armed — the ctest face of ROADMAP item 2's acceptance
// bar (the 1M-job endurance version of this run lives in DESIGN.md's
// scale-out notes; this one keeps the job count small enough for the
// tier-1 suite).
#include <gtest/gtest.h>

#include "check/check_config.hpp"
#include "check/diff_harness.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "sched/policy_factory.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

const workload::Trace& scaleTrace() {
  static const workload::Trace trace = [] {
    auto cfg = workload::scaledToMachine(workload::sdscConfig(400, 11),
                                         100'000);
    cfg.offeredLoad = 0.95;
    return workload::generateTrace(cfg);
  }();
  return trace;
}

class ScalePolicy : public ::testing::TestWithParam<std::string> {};

TEST_P(ScalePolicy, HundredThousandProcsBothKernelModesChecked) {
  const workload::Trace& trace = scaleTrace();
  core::PolicySpec spec = check::policyFromToken(GetParam());
  if (GetParam().rfind("tss:", 0) == 0)
    spec.ss.tssLimits = core::bootstrapTssLimits(trace);
  core::SimulationOptions options;
  options.check = check::CheckConfig::all();
  for (const check::Lane lane :
       {check::Lane::Production, check::Lane::Reference}) {
    const metrics::RunStats stats =
        core::runSimulation(trace, check::lanePolicy(spec, lane), options);
    EXPECT_EQ(stats.jobs.size(), trace.jobs.size());
    EXPECT_GT(stats.eventsProcessed, trace.jobs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, ScalePolicy,
    ::testing::ValuesIn(sched::knownPolicyTokens()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string name = param.param;
      for (char& c : name)
        if (c == ':' || c == '-' || c == '.') c = '_';
      return name;
    });

}  // namespace
}  // namespace sps
