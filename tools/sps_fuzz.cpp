// sps_fuzz — differential scheduling fuzzer (sps::check::DiffHarness).
//
// Each iteration draws one adversarial workload (makeFuzzTrace corner
// shapes) and runs it through every fuzz policy token in BOTH lanes — the
// production policy and its check::referencePolicy — with the invariant
// oracle armed at stride 1. Any schedule divergence or invariant firing is
// a bug by construction: the case is shrunk with the greedy job-removal
// minimizer and written as a self-contained .repro file that
// tests/test_fuzz_corpus.cpp replays.
//
// Three diffs per case: production vs reference, the ingest-boundary diff
// (batch vs seeded streamed replay), and the federation diff (the case partitioned across a seeded shard count and
// router must equal its per-shard single-cluster replays bit for bit —
// fed::diffFederated). Repros carry the federated parameters (shards /
// router / delay lines) and replay through the right lane automatically.
//
//   sps_fuzz --runs 200 --seed 1            # the acceptance sweep
//   sps_fuzz --runs 50 --seed 1             # ctest fuzz-smoke
//   sps_fuzz --policy ss:2 --runs 500       # hammer one policy family
//   sps_fuzz --seed 7 --policy tss:2 --dump corpus/tss-7.repro
//
// Exit status: 0 when every diff is clean, 1 on any failure (repros are
// still written), 2 on usage errors.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/check_config.hpp"
#include "check/diff_harness.hpp"
#include "core/cli_config.hpp"
#include "fed/fed_diff.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace sps;

struct FuzzOptions {
  std::size_t runs = 200;
  std::uint64_t seed = 1;
  std::string policy;         ///< empty = every fuzzPolicyTokens() entry
  std::string outDir = ".";   ///< where failure repros land
  std::uint32_t stride = 1;   ///< sampled-audit stride for the oracle
  std::size_t shrinkRuns = 400;
  std::string dumpFile;       ///< write the case repro and exit (corpus)
  std::string replayFile;     ///< replay one .repro and exit
  bool quiet = false;
};

core::CliConfig makeCli(FuzzOptions& opt) {
  core::CliConfig cli(
      "sps_fuzz",
      "differential scheduling fuzzer: every policy, production vs "
      "reference,\nwith the sps::check invariant oracle armed; divergences "
      "shrink to .repro files");
  cli.section("Fuzzing");
  cli.option("--runs", &opt.runs, "N",
             "fuzz iterations; each runs every selected policy in both "
             "lanes (default: 200)");
  cli.option("--seed", &opt.seed, "S",
             "base seed; case seeds derive deterministically (default: 1)");
  cli.option("--policy", &opt.policy, "TOKEN",
             "fuzz only this policy token, e.g. ss:2, depth:inf, "
             "tss-online:2 (default: all)");
  cli.option("--stride", &opt.stride, "N",
             "sampled-audit stride for the armed oracle (default: 1)");
  cli.option("--max-shrink-runs", &opt.shrinkRuns, "N",
             "diff-evaluation budget for the minimizer (default: 400)");
  cli.section("Output");
  cli.option("--out", &opt.outDir, "DIR",
             "directory for failure .repro files (default: .)");
  cli.option("--dump", &opt.dumpFile, "FILE",
             "write the first case's repro (from --seed/--policy) to FILE "
             "and exit; used to seed tests/corpus");
  cli.option("--replay", &opt.replayFile, "FILE",
             "replay one .repro file through the differential harness and "
             "exit (0 = clean, 1 = still failing)");
  cli.flag("--quiet", &opt.quiet, "no progress lines, only failures");
  return cli;
}

/// Policy tokens contain ':'; keep repro filenames shell-friendly.
std::string sanitize(std::string token) {
  for (char& c : token)
    if (c == ':' || c == '.') c = '-';
  return token;
}

/// Write a failing (already shrunk) case next to its diagnosis.
void emitRepro(const FuzzOptions& opt, const check::FuzzCase& c,
               std::uint64_t caseSeed, const check::DiffOutcome& outcome) {
  const std::string path = opt.outDir + "/fuzz-" + std::to_string(caseSeed) +
                           "-" + sanitize(c.policyToken) + ".repro";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "sps_fuzz: cannot write " << path << "\n";
    return;
  }
  check::writeRepro(os, c);
  std::cerr << "  repro: " << path << " (" << c.trace.jobs.size()
            << " jobs after shrink)\n";
  if (!outcome.violation.empty())
    std::cerr << "  violation: " << outcome.violation << "\n";
  if (!outcome.divergence.empty())
    std::cerr << "  divergence: " << outcome.divergence << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opt;
  core::CliConfig cli = makeCli(opt);
  try {
    if (cli.parse(argc, argv).helpRequested) {
      cli.printUsage(std::cout);
      return 0;
    }
  } catch (const sps::InputError& e) {
    std::cerr << "sps_fuzz: " << e.what() << "\n";
    return 2;
  }

  std::vector<std::string> tokens = check::fuzzPolicyTokens();
  if (!opt.policy.empty()) {
    try {
      (void)check::policyFromToken(opt.policy);  // eager validation
    } catch (const sps::InputError& e) {
      std::cerr << "sps_fuzz: " << e.what() << "\n";
      return 2;
    }
    tokens = {opt.policy};
  }

  const check::DiffHarness harness{check::CheckConfig::all(opt.stride)};

  if (!opt.replayFile.empty()) {
    std::ifstream is(opt.replayFile);
    if (!is) {
      std::cerr << "sps_fuzz: cannot read " << opt.replayFile << "\n";
      return 2;
    }
    check::FuzzCase c;
    try {
      c = check::readRepro(is);
    } catch (const sps::InputError& e) {
      std::cerr << "sps_fuzz: " << opt.replayFile << ": " << e.what() << "\n";
      return 2;
    }
    check::DiffOutcome outcome;
    if (c.fedShards > 0) {
      // Federated repros route through the federation differential.
      outcome = fed::diffFederated(c, check::CheckConfig::all(opt.stride));
    } else {
      outcome = harness.diff(c);
      // The streamed lane replays too, so ingest-boundary repros reproduce;
      // the chop seed derives from --seed as in the fuzz loop.
      if (outcome.ok()) outcome = harness.diffStreamed(c, opt.seed);
    }
    std::cout << opt.replayFile << ": " << c.trace.jobs.size() << " jobs, "
              << c.policyToken
              << (c.fedShards > 0
                      ? ", fed " + std::to_string(c.fedShards) + "x" +
                            c.fedRouter
                      : "")
              << ", " << (outcome.ok() ? "clean" : "FAILING") << "\n";
    if (!outcome.violation.empty())
      std::cerr << "  violation: " << outcome.violation << "\n";
    if (!outcome.divergence.empty())
      std::cerr << "  divergence: " << outcome.divergence << "\n";
    return outcome.ok() ? 0 : 1;
  }

  if (!opt.dumpFile.empty()) {
    const check::FuzzCase c = check::makeFuzzCase(opt.seed, tokens.front());
    std::ofstream os(opt.dumpFile);
    if (!os) {
      std::cerr << "sps_fuzz: cannot write " << opt.dumpFile << "\n";
      return 2;
    }
    check::writeRepro(os, c);
    const check::DiffOutcome outcome = harness.diff(c);
    std::cout << "wrote " << opt.dumpFile << " (" << c.trace.jobs.size()
              << " jobs, " << c.policyToken << ", diff "
              << (outcome.ok() ? "clean" : "FAILING") << ")\n";
    return 0;
  }

  SplitMix64 seeder(opt.seed);
  std::size_t diffs = 0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < opt.runs; ++i) {
    const std::uint64_t caseSeed = seeder.next();
    for (const std::string& token : tokens) {
      check::FuzzCase c = check::makeFuzzCase(caseSeed, token);
      check::DiffOutcome outcome = harness.diff(c);
      ++diffs;
      if (!outcome.ok()) {
        ++failures;
        std::cerr << "FAIL iter " << i << " seed " << caseSeed << " policy "
                  << token << "\n";
        const check::FuzzCase small = harness.shrink(c, opt.shrinkRuns);
        emitRepro(opt, small, caseSeed, harness.diff(small));
        continue;
      }
      // Ingest-boundary lane: the same case replayed through the streaming
      // API in seeded coarse segments must match its batch schedule bit for
      // bit in both lanes. Streamed failures are emitted unshrunk (the
      // minimizer's oracle is the production/reference diff); --replay
      // runs this lane too, with the case seed derived from --seed.
      outcome = harness.diffStreamed(c, caseSeed);
      ++diffs;
      if (!outcome.ok()) {
        ++failures;
        std::cerr << "FAIL (streamed) iter " << i << " seed " << caseSeed
                  << " policy " << token << "\n";
        emitRepro(opt, c, caseSeed, outcome);
        continue;
      }
      // Federation lane: the same case partitioned across a seeded shard
      // count and router must equal its per-shard single-cluster replays
      // bit for bit (live run + conservation audit + recorded-router
      // replay + batch comparison, production policies). Failures shrink
      // with the federation differential as the minimizer's oracle.
      check::FuzzCase f = c;
      SplitMix64 fedMix(caseSeed ^ 0x9e3779b97f4a7c15ull);
      f.fedShards = 1 + static_cast<std::uint32_t>(fedMix.next() % 4);
      f.fedRouter = (fedMix.next() & 1) != 0 ? "least-loaded" : "hash";
      const std::uint64_t delayPick = fedMix.next() % 3;
      f.fedDelay = delayPick == 0 ? 0 : delayPick == 1 ? 30 : 3600;
      const check::CheckConfig checks = check::CheckConfig::all(opt.stride);
      outcome = fed::diffFederated(f, checks);
      ++diffs;
      if (outcome.ok()) continue;
      ++failures;
      std::cerr << "FAIL (federated) iter " << i << " seed " << caseSeed
                << " policy " << token << " shards " << f.fedShards
                << " router " << f.fedRouter << " delay " << f.fedDelay
                << "\n";
      const check::FuzzCase small = check::DiffHarness::shrinkWith(
          f,
          [&checks](const check::FuzzCase& candidate) {
            return !fed::diffFederated(candidate, checks).ok();
          },
          opt.shrinkRuns);
      emitRepro(opt, small, caseSeed, fed::diffFederated(small, checks));
    }
    if (!opt.quiet && (i + 1) % 25 == 0)
      std::cout << "iter " << (i + 1) << "/" << opt.runs << ": " << diffs
                << " diffs, " << failures << " failures\n";
  }

  if (failures != 0) {
    std::cerr << "sps_fuzz: " << failures << "/" << diffs
              << " diffs failed (repros in " << opt.outDir << ")\n";
    return 1;
  }
  if (!opt.quiet)
    std::cout << "sps_fuzz: " << diffs << " diffs clean ("
              << tokens.size() << " policies x " << opt.runs
              << " iterations, production vs reference, oracle stride "
              << opt.stride << ")\n";
  return 0;
}
