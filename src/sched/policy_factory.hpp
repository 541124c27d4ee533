// Policy factory — the single seam between policy *descriptions* and
// policy *objects*.
//
// Every front end used to hand-roll its own switch over policy names
// (sps_sim's CLI parser, the fuzz harness's token parser, the experiment
// presets), each constructing concrete schedulers with slightly different
// defaults. This registry replaces them:
//
//   * PolicySpec — a plain-data description: which policy, with which
//     per-policy config block. Serializable-by-hand, comparable, and the
//     unit the experiment engine and diff harness pass around.
//   * makePolicy(spec) — the only place a spec becomes a scheduler.
//   * specFromToken("ss:2") — the shared textual form ("fcfs", "easy",
//     "sjf", "depth:4", "depth:inf", "ss:1.5", "tss:2", "tss-online:2",
//     "is", "gang", "conservative") used by CLIs and the fuzzer alike.
//
// Every spec names one production algorithm; the differential reference
// of a policy is built by check::referencePolicy, not selected here.
//
// core::PolicySpec et al. remain as aliases of these types, so existing
// callers (and the stable core:: facade) are unaffected.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/conservative.hpp"
#include "sched/depth_backfill.hpp"
#include "sched/easy.hpp"
#include "sched/gang.hpp"
#include "sched/immediate_service.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/policy.hpp"

namespace sps::sched {

enum class PolicyKind {
  Fcfs,
  Conservative,
  Easy,                 ///< the paper's "No Suspension (NS)" baseline
  SelectiveSuspension,  ///< SS; TSS when spec.ss.tssLimits is set
  ImmediateService,
  Gang,                 ///< extension: Ousterhout-matrix time slicing
  DepthBackfill,        ///< extension: K-deep reservation backfilling
};

[[nodiscard]] const char* policyKindName(PolicyKind kind);

struct PolicySpec {
  PolicyKind kind = PolicyKind::Easy;
  SsConfig ss{};        ///< used when kind == SelectiveSuspension
  IsConfig is{};        ///< used when kind == ImmediateService
  EasyConfig easy{};    ///< used when kind == Easy
  GangConfig gang{};    ///< used when kind == Gang
  DepthConfig depth{};  ///< used when kind == DepthBackfill
  /// Optional display label override (defaults to the policy's own name()).
  std::string label;
};

/// Instantiate the policy a spec describes.
[[nodiscard]] std::unique_ptr<sim::SchedulingPolicy> makePolicy(
    const PolicySpec& spec);

/// Display label of a spec: spec.label if set, else the policy's name().
[[nodiscard]] std::string policyLabel(const PolicySpec& spec);

/// Parse the shared textual policy form, "name" or "name:param". The
/// returned spec's label is the token itself. "tss:SF" sets the suspension
/// factor only — the caller supplies the per-category limits (they are
/// derived from a calibration run of the target trace). Throws
/// std::invalid_argument on an unknown name or a malformed parameter.
[[nodiscard]] PolicySpec specFromToken(const std::string& token);

/// One representative token per registry entry (parameterized names carry
/// example parameters) — the fuzzer's policy lane list.
[[nodiscard]] std::vector<std::string> knownPolicyTokens();

}  // namespace sps::sched
