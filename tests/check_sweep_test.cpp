// Wider seed sweeps over the check harness — labeled `slow`+`check`,
// excluded from tier1 (run with `ctest -L slow`). The nightly CI job goes
// wider still (~500 seeds per protocol via check_runner).
#include <gtest/gtest.h>

#include "check/runner.h"

namespace pbc::check {
namespace {

void ExpectSweepClean(SweepOptions options) {
  SweepReport report = RunSweep(options);
  for (const SweepFailure& failure : report.failures) {
    ADD_FAILURE() << "repro: " << failure.config.ReproLine()
                  << (failure.violations.empty()
                          ? ""
                          : "\n  [" + failure.violations[0].invariant + "] " +
                                failure.violations[0].detail);
  }
  // Liveness under these profiles is expected (fault-free tail), but a
  // straggler is not a safety failure; surface it without failing hard.
  if (!report.not_live.empty()) {
    GTEST_LOG_(WARNING) << report.not_live.size()
                        << " run(s) missed the horizon, first: "
                        << report.not_live.front();
  }
}

TEST(CheckSweepTest, ConsensusProtocolsUnderFullNemesis) {
  SweepOptions options;
  options.protocols = {Protocol::kPbft, Protocol::kRaft, Protocol::kHotStuff,
                       Protocol::kTendermint, Protocol::kPaxos};
  options.nemeses = {
      {.crash = true, .partition = true, .delay = true, .byzantine = true}};
  options.seeds = 25;
  ExpectSweepClean(options);
}

TEST(CheckSweepTest, ConsensusProtocolsLargerClusters) {
  SweepOptions options;
  options.protocols = {Protocol::kPbft, Protocol::kRaft, Protocol::kHotStuff,
                       Protocol::kTendermint, Protocol::kPaxos};
  options.nemeses = {{.crash = true, .partition = true}};
  options.cluster_sizes = {7};
  options.seeds = 10;
  ExpectSweepClean(options);
}

TEST(CheckSweepTest, ShardedSystemsUnderCrashAndDelay) {
  SweepOptions options;
  options.protocols = {Protocol::kSharper, Protocol::kAhl};
  options.nemeses = {{.crash = true, .delay = true}};
  options.seeds = 10;
  ExpectSweepClean(options);
}

}  // namespace
}  // namespace pbc::check
