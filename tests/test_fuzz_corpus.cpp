// Corpus replay (`ctest -L fuzz`): every .repro under tests/corpus/ runs
// through the differential harness — production against reference,
// invariant oracle at stride 1 — and must come back clean. The
// fence-alloc-* files are shrunk fuzzer finds (regression tests for fixed
// bugs); the stress-* files are adversarial workloads dumped with
// `sps_fuzz --dump` to keep every policy family exercised here even when
// the fuzzer has nothing new to say.
// Repros carrying federated directives (shards/router/delay) route through
// fed::diffFederated instead: the case runs as a federation and must equal
// its per-shard single-cluster replays bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/diff_harness.hpp"
#include "fed/fed_diff.hpp"

namespace sps {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(SPS_CORPUS_DIR))
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, DirectoryIsNotEmpty) {
  EXPECT_GE(corpusFiles().size(), 4u) << "corpus dir: " << SPS_CORPUS_DIR;
}

TEST(FuzzCorpus, EveryReproDiffsClean) {
  const check::DiffHarness harness;  // CheckConfig::all(1)
  for (const fs::path& path : corpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream is(path);
    ASSERT_TRUE(is) << "cannot open " << path;
    check::FuzzCase c;
    ASSERT_NO_THROW(c = check::readRepro(is));
    const check::DiffOutcome outcome =
        c.fedShards > 0 ? fed::diffFederated(c) : harness.diff(c);
    EXPECT_TRUE(outcome.violation.empty()) << outcome.violation;
    EXPECT_TRUE(outcome.divergence.empty()) << outcome.divergence;
  }
}

// At least two corpus entries must keep the federated lane exercised.
TEST(FuzzCorpus, CarriesFederatedRepros) {
  std::size_t federated = 0;
  for (const fs::path& path : corpusFiles()) {
    std::ifstream is(path);
    ASSERT_TRUE(is);
    check::FuzzCase c;
    ASSERT_NO_THROW(c = check::readRepro(is));
    if (c.fedShards > 0) ++federated;
  }
  EXPECT_GE(federated, 2u);
}

// The repro format round-trips: write(read(f)) parses back to the same case.
TEST(FuzzCorpus, ReproFormatRoundTrips) {
  for (const fs::path& path : corpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream is(path);
    ASSERT_TRUE(is);
    check::FuzzCase first;
    ASSERT_NO_THROW(first = check::readRepro(is));

    std::stringstream ss;
    check::writeRepro(ss, first);
    check::FuzzCase second = check::readRepro(ss);

    EXPECT_EQ(first.policyToken, second.policyToken);
    EXPECT_EQ(first.overhead, second.overhead);
    EXPECT_EQ(first.trace.machineProcs, second.trace.machineProcs);
    EXPECT_EQ(first.fedShards, second.fedShards);
    EXPECT_EQ(first.fedRouter, second.fedRouter);
    EXPECT_EQ(first.fedDelay, second.fedDelay);
    ASSERT_EQ(first.trace.jobs.size(), second.trace.jobs.size());
    for (std::size_t i = 0; i < first.trace.jobs.size(); ++i) {
      EXPECT_EQ(first.trace.jobs[i].submit, second.trace.jobs[i].submit);
      EXPECT_EQ(first.trace.jobs[i].runtime, second.trace.jobs[i].runtime);
      EXPECT_EQ(first.trace.jobs[i].estimate, second.trace.jobs[i].estimate);
      EXPECT_EQ(first.trace.jobs[i].procs, second.trace.jobs[i].procs);
    }
  }
}

}  // namespace
}  // namespace sps
