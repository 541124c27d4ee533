// Federated differential — the equivalence theorem made executable.
//
// A federation with a recorded router must equal the matching single-
// cluster batch runs on the per-shard traces it induced, bit for bit.
// diffFederated runs one fuzz case both ways, once, with the invariant
// oracle armed on every shard, audits fleet conservation,
// and compares each shard's collected RunStats through the OpenMetrics
// exposition — a strict string equality that covers the schedule-derived
// statistics, the full counter block, and the 16-category suspension
// breakdown at once. sps_fuzz's federation lane and the fed repros in
// tests/corpus/ replay through this entry point.
#pragma once

#include <cstdint>

#include "check/check_config.hpp"
#include "check/diff_harness.hpp"

namespace sps::fed {

/// Run `c` (which must have fedShards > 0) as a federation of production
/// policies and diff it against its per-shard single-cluster replay.
/// Production against reference is DiffHarness's job, not this one's.
/// `threads` sizes the shard pool (0 = hardware).
[[nodiscard]] check::DiffOutcome diffFederated(
    const check::FuzzCase& c,
    const check::CheckConfig& checks = check::CheckConfig::all(1),
    std::size_t threads = 0);

}  // namespace sps::fed
