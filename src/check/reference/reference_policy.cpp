#include "check/reference/reference_policy.hpp"

#include "check/reference/conservative_reference.hpp"
#include "check/reference/depth_reference.hpp"
#include "check/reference/easy_reference.hpp"
#include "check/reference/ss_reference.hpp"

namespace sps::check {

std::unique_ptr<sim::SchedulingPolicy> referencePolicy(
    const sched::PolicySpec& spec) {
  switch (spec.kind) {
    case sched::PolicyKind::SelectiveSuspension:
      return std::make_unique<ReferenceSelectiveSuspension>(spec.ss);
    case sched::PolicyKind::Easy:
      return std::make_unique<RestartScanEasy>(spec.easy.order);
    case sched::PolicyKind::Conservative:
      return std::make_unique<ReferenceConservative>();
    case sched::PolicyKind::DepthBackfill:
      return std::make_unique<ReferenceDepthBackfill>(spec.depth);
    default:
      return sched::makePolicy(spec);
  }
}

const char* laneName(Lane lane) {
  return lane == Lane::Production ? "production" : "reference";
}

std::unique_ptr<sim::SchedulingPolicy> lanePolicy(
    const sched::PolicySpec& spec, Lane lane) {
  return lane == Lane::Production ? sched::makePolicy(spec)
                                  : referencePolicy(spec);
}

}  // namespace sps::check
