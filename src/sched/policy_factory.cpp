#include "sched/policy_factory.hpp"

#include <sstream>
#include <stdexcept>

#include "sched/fcfs.hpp"
#include "util/check.hpp"

namespace sps::sched {

namespace {

/// "name" / "name:param" split.
std::pair<std::string, std::string> splitToken(const std::string& token) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) return {token, ""};
  return {token.substr(0, colon), token.substr(colon + 1)};
}

double parseFactor(const std::string& token, const std::string& param) {
  std::istringstream is(param);
  double value = 0.0;
  if (!(is >> value) || !is.eof() || value <= 0.0)
    throw std::invalid_argument("bad parameter in policy token '" + token +
                                "'");
  return value;
}

}  // namespace

const char* policyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Fcfs: return "FCFS";
    case PolicyKind::Conservative: return "Conservative";
    case PolicyKind::Easy: return "EASY";
    case PolicyKind::SelectiveSuspension: return "SelectiveSuspension";
    case PolicyKind::ImmediateService: return "ImmediateService";
    case PolicyKind::Gang: return "Gang";
    case PolicyKind::DepthBackfill: return "DepthBackfill";
  }
  return "?";
}

std::unique_ptr<sim::SchedulingPolicy> makePolicy(const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::Fcfs:
      return std::make_unique<FcfsScheduler>();
    case PolicyKind::Conservative:
      return std::make_unique<ConservativeBackfill>();
    case PolicyKind::Easy:
      return std::make_unique<EasyBackfill>(spec.easy);
    case PolicyKind::SelectiveSuspension:
      return std::make_unique<SelectiveSuspension>(spec.ss);
    case PolicyKind::ImmediateService:
      return std::make_unique<ImmediateService>(spec.is);
    case PolicyKind::Gang:
      return std::make_unique<GangScheduler>(spec.gang);
    case PolicyKind::DepthBackfill:
      return std::make_unique<DepthBackfill>(spec.depth);
  }
  SPS_CHECK_MSG(false, "unknown policy kind");
  return nullptr;  // unreachable
}

std::string policyLabel(const PolicySpec& spec) {
  if (!spec.label.empty()) return spec.label;
  return makePolicy(spec)->name();
}

PolicySpec specFromToken(const std::string& token) {
  const auto [name, param] = splitToken(token);
  PolicySpec spec;
  spec.label = token;
  if (name == "conservative") {
    spec.kind = PolicyKind::Conservative;
  } else if (name == "easy") {
    spec.kind = PolicyKind::Easy;
  } else if (name == "sjf") {
    spec.kind = PolicyKind::Easy;
    spec.easy.order = QueueOrder::ShortestFirst;
  } else if (name == "fcfs") {
    spec.kind = PolicyKind::Fcfs;
  } else if (name == "gang") {
    spec.kind = PolicyKind::Gang;
  } else if (name == "is") {
    spec.kind = PolicyKind::ImmediateService;
  } else if (name == "depth") {
    spec.kind = PolicyKind::DepthBackfill;
    if (param == "inf")
      spec.depth.depth = kUnlimitedDepth;
    else
      spec.depth.depth = static_cast<std::size_t>(parseFactor(token, param));
  } else if (name == "ss") {
    spec.kind = PolicyKind::SelectiveSuspension;
    spec.ss.suspensionFactor = parseFactor(token, param);
  } else if (name == "tss") {
    // Per-category limits are supplied by the caller (calibrated against
    // the target trace); the token only fixes the suspension factor.
    spec.kind = PolicyKind::SelectiveSuspension;
    spec.ss.suspensionFactor = parseFactor(token, param);
  } else if (name == "tss-online") {
    spec.kind = PolicyKind::SelectiveSuspension;
    spec.ss.tssOnlineMultiplier = parseFactor(token, param);
  } else {
    throw std::invalid_argument("unknown policy token: '" + token + "'");
  }
  return spec;
}

std::vector<std::string> knownPolicyTokens() {
  return {"fcfs",    "conservative", "easy", "sjf",
          "depth:2", "depth:inf",    "ss:2", "ss:1.5",
          "tss:2",   "tss-online:2", "is",   "gang"};
}

}  // namespace sps::sched
