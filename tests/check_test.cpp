// Unit tests for the simulation-testing subsystem (src/check): each
// invariant checker against a deliberately broken fake system-under-test,
// nemesis generation/shrinking, run determinism, the quorum-mutation
// canary, and replay of the committed seed corpus (tests/seeds.txt).
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include "check/adversary.h"
#include "check/harness.h"
#include "check/invariants.h"
#include "check/nemesis.h"
#include "check/runner.h"
#include "ledger/block.h"
#include "ledger/chain.h"
#include "seed_corpus.h"

namespace pbc::check {
namespace {

txn::Transaction KvTxn(txn::TxnId id) {
  txn::Transaction t;
  t.id = id;
  t.ops.push_back(txn::Op::Write("k" + std::to_string(id % 7), "v"));
  return t;
}

std::vector<Violation> RunChecker(InvariantChecker* checker) {
  std::vector<Violation> out;
  checker->Check(/*now=*/123, &out);
  return out;
}

// --- Invariant checkers vs broken fakes ------------------------------------

TEST(ChainAgreementCheckerTest, AcceptsConsistentPrefixes) {
  ledger::Chain a, b;
  a.Append({KvTxn(1)});
  a.Append({KvTxn(2)});
  b.Append({KvTxn(1)});  // b is one block behind — still a prefix
  ChainAgreementChecker checker([&] {
    return std::vector<const ledger::Chain*>{&a, &b};
  });
  EXPECT_TRUE(RunChecker(&checker).empty());
}

TEST(ChainAgreementCheckerTest, CatchesForkedReplicas) {
  ledger::Chain a, b;
  a.Append({KvTxn(1)});
  b.Append({KvTxn(2)});  // same height, different block: a fork
  ChainAgreementChecker checker([&] {
    return std::vector<const ledger::Chain*>{&a, &b};
  });
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, std::string("chain-agreement"));
  EXPECT_EQ(found[0].at, 123u);
}

TEST(ChainLinkageCheckerTest, CatchesTamperedBlock) {
  ledger::Chain good, bad;
  good.Append({KvTxn(1)});
  bad.Append({KvTxn(1)});
  bad.Append({KvTxn(2)});
  // Tamper with history behind the chain's back: the Merkle root in the
  // stored header no longer matches the transactions.
  ledger::Block* block = bad.MutableBlockForTest(0);
  std::vector<txn::Transaction> txns = block->txns;
  txns.push_back(KvTxn(99));
  block->txns = std::move(txns);
  ChainLinkageChecker checker([&] {
    return std::vector<const ledger::Chain*>{&good, &bad};
  });
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].detail.find("replica 1"), std::string::npos);
  EXPECT_FALSE(checker.periodic());  // full audits are final-only
}

TEST(CommitValidityCheckerTest, CatchesForeignAndDuplicateTxns) {
  ledger::Chain chain;
  chain.Append({KvTxn(1), KvTxn(2)});
  chain.Append({KvTxn(99), KvTxn(2)});  // 99 foreign, 2 duplicated
  CommitValidityChecker checker(
      [&] { return std::vector<const ledger::Chain*>{&chain}; },
      [](txn::TxnId id) { return id >= 1 && id <= 10; });
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NE(found[0].detail.find("never submitted"), std::string::npos);
  EXPECT_NE(found[1].detail.find("more than once"), std::string::npos);
}

TEST(KvModelCheckerTest, AcceptsIdenticalOrders) {
  KvModelChecker checker;
  for (size_t replica = 0; replica < 3; ++replica) {
    checker.OnCommit(replica, KvTxn(1), 10);
    checker.OnCommit(replica, KvTxn(2), 20);
  }
  EXPECT_TRUE(RunChecker(&checker).empty());
  EXPECT_EQ(checker.canonical_length(), 2u);
}

TEST(KvModelCheckerTest, CatchesDivergentCommitOrder) {
  KvModelChecker checker;
  checker.OnCommit(0, KvTxn(1), 10);
  checker.OnCommit(0, KvTxn(2), 20);
  checker.OnCommit(1, KvTxn(2), 30);  // position 0 holds txn 1, not 2
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, std::string("kv-linearizability"));
  // Violations are drained once reported.
  EXPECT_TRUE(RunChecker(&checker).empty());
}

TEST(BalanceConservationCheckerTest, CatchesLeakOnlyWhenSettled) {
  int64_t total = 0;
  bool settled = false;
  BalanceConservationChecker checker([&] { return total; }, int64_t{0},
                                     [&] { return settled; });
  total = 5;  // money appeared from nowhere
  EXPECT_TRUE(RunChecker(&checker).empty());  // gated: not settled yet
  settled = true;
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].detail.find("5"), std::string::npos);
  total = 0;
  EXPECT_TRUE(RunChecker(&checker).empty());
}

TEST(CrossShardAtomicityCheckerTest, CatchesCommitAbortSplit) {
  CrossShardAtomicityChecker checker;
  checker.ExpectOutcomes(7, /*involved_clusters=*/2);
  checker.OnShardOutcome(0, 7, /*commit=*/true, 10);
  EXPECT_FALSE(checker.AllDecided());
  checker.OnShardOutcome(1, 7, /*commit=*/false, 20);  // sibling aborts
  EXPECT_TRUE(checker.AllDecided());
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].detail.find("txn 7"), std::string::npos);
}

TEST(CheckerSuiteTest, CapsViolationsPerInvariant) {
  sim::Simulator sim(1);
  CheckerSuite suite(&sim);
  int64_t total = 1;  // permanently broken
  suite.Add(std::make_unique<BalanceConservationChecker>(
      [&] { return total; }, int64_t{0}));
  for (size_t i = 0; i < CheckerSuite::kMaxViolationsPerInvariant + 5; ++i) {
    suite.RunPeriodic();
  }
  EXPECT_EQ(suite.violations().size(),
            CheckerSuite::kMaxViolationsPerInvariant);
  EXPECT_EQ(suite.coverage().at("balance-conservation"),
            CheckerSuite::kMaxViolationsPerInvariant + 5);
}

// --- Nemesis ----------------------------------------------------------------

TEST(NemesisProfileTest, ParsesAndRoundTrips) {
  NemesisProfile p;
  ASSERT_TRUE(NemesisProfile::Parse("partition,crash", &p));
  EXPECT_TRUE(p.crash);
  EXPECT_TRUE(p.partition);
  EXPECT_FALSE(p.delay);
  EXPECT_EQ(p.ToString(), "crash,partition");  // canonical order
  ASSERT_TRUE(NemesisProfile::Parse("none", &p));
  EXPECT_EQ(p.ToString(), "none");
  EXPECT_FALSE(NemesisProfile::Parse("crash,meteor", &p));
}

NemesisTopology FourNodeTopology() {
  NemesisTopology topo;
  topo.groups.push_back({{0, 1, 2, 3}, /*max_faulty=*/1});
  topo.all_nodes = {0, 1, 2, 3};
  topo.supports_byzantine = true;
  return topo;
}

TEST(NemesisScheduleTest, GenerationIsDeterministic) {
  NemesisProfile p;
  ASSERT_TRUE(NemesisProfile::Parse("crash,partition,delay,byzantine", &p));
  NemesisTopology topo = FourNodeTopology();
  NemesisSchedule a = NemesisSchedule::Generate(p, topo, 60'000'000, 42);
  NemesisSchedule b = NemesisSchedule::Generate(p, topo, 60'000'000, 42);
  EXPECT_EQ(a.Describe(), b.Describe());
  NemesisSchedule c = NemesisSchedule::Generate(p, topo, 60'000'000, 43);
  EXPECT_NE(a.Describe(), c.Describe());
}

TEST(NemesisScheduleTest, WindowsFilterToWellFormedSubsets) {
  NemesisProfile p;
  ASSERT_TRUE(NemesisProfile::Parse("crash,partition", &p));
  NemesisSchedule full =
      NemesisSchedule::Generate(p, FourNodeTopology(), 60'000'000, 7);
  std::vector<uint64_t> windows = full.WindowIds();
  ASSERT_FALSE(windows.empty());
  // Keeping only the first window keeps exactly its paired events.
  NemesisSchedule one = full.Filtered({windows[0]});
  ASSERT_FALSE(one.empty());
  for (const NemesisEvent& ev : one.events()) {
    EXPECT_EQ(ev.window, windows[0]);
  }
  EXPECT_TRUE(full.Filtered({}).empty());
}

TEST(NemesisScheduleTest, RespectsCrashBudgetAndNeverCrashList) {
  NemesisProfile p;
  ASSERT_TRUE(NemesisProfile::Parse("crash", &p));
  NemesisTopology topo = FourNodeTopology();
  topo.never_crash = {3};
  for (uint64_t seed = 0; seed < 20; ++seed) {
    NemesisSchedule s = NemesisSchedule::Generate(p, topo, 60'000'000, seed);
    int down = 0;
    for (const NemesisEvent& ev : s.events()) {
      if (ev.kind == NemesisKind::kCrash) {
        EXPECT_NE(ev.node, 3u) << "seed=" << seed;
        ++down;
        EXPECT_LE(down, 1) << "seed=" << seed;  // group budget is f=1
      } else if (ev.kind == NemesisKind::kRecover) {
        --down;
      }
    }
    EXPECT_EQ(down, 0) << "seed=" << seed;  // every crash recovers
  }
}

TEST(ShrinkWindowsTest, FindsMinimalCulpritPair) {
  std::vector<uint64_t> windows;
  for (uint64_t i = 1; i <= 10; ++i) windows.push_back(i);
  size_t calls = 0;
  auto needs_3_and_7 = [&calls](const std::vector<uint64_t>& ws) {
    ++calls;
    bool has3 = false, has7 = false;
    for (uint64_t w : ws) {
      if (w == 3) has3 = true;
      if (w == 7) has7 = true;
    }
    return has3 && has7;
  };
  size_t replays = 0;
  std::vector<uint64_t> minimal = ShrinkWindowsBatched(
      windows, SerialShrinkProbe(needs_3_and_7), 64, &replays);
  EXPECT_EQ(minimal, (std::vector<uint64_t>{3, 7}));
  EXPECT_LE(calls, 64u);
  EXPECT_EQ(replays, calls);  // the serial probe charges each call once
}

TEST(ShrinkWindowsTest, EmptyWhenFailureNeedsNoFaults) {
  size_t replays = 0;
  std::vector<uint64_t> minimal = ShrinkWindowsBatched(
      {1, 2, 3},
      SerialShrinkProbe([](const std::vector<uint64_t>&) { return true; }),
      64, &replays);
  EXPECT_TRUE(minimal.empty());
  EXPECT_EQ(replays, 1u);  // the fault-free probe reproduced at once
}

// --- Harness determinism ----------------------------------------------------

TEST(HarnessTest, SameSeedSameRun) {
  RunConfig cfg;
  cfg.protocol = Protocol::kPbft;
  cfg.nemesis = {.crash = true, .partition = true};
  cfg.seed = 5;
  cfg.txns = 15;
  RunResult a = RunOne(cfg);
  RunResult b = RunOne(cfg);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.sim_end_us, b.sim_end_us);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.schedule.Describe(), b.schedule.Describe());
}

TEST(HarnessTest, DistinctSeedsDiverge) {
  RunConfig cfg;
  cfg.protocol = Protocol::kPbft;
  cfg.nemesis = {.crash = true};
  cfg.txns = 15;
  cfg.seed = 0;
  RunResult a = RunOne(cfg);
  cfg.seed = 1;
  RunResult b = RunOne(cfg);
  EXPECT_NE(a.sim_events, b.sim_events);  // different worlds entirely
}

// A zero count reaches RunOne only from code (the flag table refuses it),
// and must come back as a config violation: an empty cluster used to run,
// and a sharded run with no shards crashed.
TEST(HarnessTest, ZeroClusterSizeIsAConfigError) {
  for (Protocol protocol : {Protocol::kPbft, Protocol::kSharper}) {
    RunConfig cfg;
    cfg.protocol = protocol;
    cfg.cluster_size = 0;
    cfg.txns = 5;
    RunResult r = RunOne(cfg);
    ASSERT_EQ(r.violations.size(), 1u) << NameOf(protocol);
    EXPECT_EQ(r.violations[0].invariant, "config") << NameOf(protocol);
    EXPECT_EQ(r.sim_events, 0u) << NameOf(protocol);
  }
}

TEST(HarnessTest, ZeroShardsIsAConfigErrorForShardedProtocols) {
  for (Protocol protocol : {Protocol::kSharper, Protocol::kAhl}) {
    RunConfig cfg;
    cfg.protocol = protocol;
    cfg.num_shards = 0;
    cfg.txns = 5;
    RunResult r = RunOne(cfg);
    ASSERT_EQ(r.violations.size(), 1u) << NameOf(protocol);
    EXPECT_EQ(r.violations[0].invariant, "config") << NameOf(protocol);
  }
  // An unsharded protocol ignores the field.
  RunConfig cfg;
  cfg.protocol = Protocol::kRaft;
  cfg.num_shards = 0;
  cfg.txns = 5;
  EXPECT_TRUE(RunOne(cfg).ok());
}

// --- Quorum-mutation canary -------------------------------------------------

// A seeded off-by-one in the quorum rule must be caught by the sweep and
// shrink to a minimal schedule that still reproduces deterministically.
// With a 2-of-4 "quorum" the crash,partition profile flushes it out: the
// first reproducing seed needs a crash window to desynchronize a replica
// plus one partition window to split the weakened quorum.
TEST(MutationCanaryTest, BrokenQuorumIsCaughtAndShrinks) {
  SweepOptions options;
  options.protocols = {Protocol::kPbft};
  options.nemeses = {{.crash = true, .partition = true}};
  options.seeds = 30;
  options.base.txns = 20;
  options.base.quorum_slack = 1;
  SweepReport report = RunSweep(options);
  ASSERT_FALSE(report.failures.empty())
      << "quorum mutation survived the sweep";
  const SweepFailure& failure = report.failures.front();
  EXPECT_FALSE(failure.violations.empty());
  // The shrunk schedule still reproduces the violation when replayed.
  ASSERT_FALSE(failure.shrunk_schedule.empty());
  RunResult replay =
      RunWithSchedule(failure.config, failure.shrunk_schedule);
  EXPECT_FALSE(replay.ok());
  // And shrinking actually ran and converged on a small window set:
  // at most the crash window + the partition window described above.
  EXPECT_GT(failure.shrink_replays, 0u);
  EXPECT_LE(failure.shrunk_windows.size(), 2u);
}

TEST(MutationCanaryTest, HealthyQuorumPassesSameSweep) {
  SweepOptions options;
  options.protocols = {Protocol::kPbft};
  options.nemeses = {{.crash = true, .partition = true}};
  options.seeds = 30;
  options.base.txns = 20;
  SweepReport report = RunSweep(options);
  EXPECT_TRUE(report.ok());
}

// --- Seed corpus ------------------------------------------------------------

// tests/seeds.txt: one check_runner repro line per run, minus the
// "check_runner" prefix (see tests/seed_corpus.h). Seeds that once found a
// bug (or exercised an interesting schedule) are committed here and
// replayed on every CTest run.
TEST(SeedCorpusTest, ReplaysClean) {
  size_t block_mode = 0;
  size_t adaptive = 0;
  size_t skewed = 0;
  size_t durable = 0;
  std::vector<RunConfig> corpus = LoadSeedCorpus();
  for (const RunConfig& cfg : corpus) {
    if (cfg.block_max_txns > 0) ++block_mode;
    if (cfg.adversary != AdversaryMode::kRandom) ++adaptive;
    if (cfg.clock_skew_ppm != 0) ++skewed;
    if (cfg.durable) ++durable;
    RunResult result = RunOne(cfg);
    for (const Violation& v : result.violations) {
      ADD_FAILURE() << "[" << v.invariant << "] " << v.detail
                    << "\n  repro: " << cfg.ReproLine();
    }
  }
  EXPECT_GE(corpus.size(), 10u) << "corpus unexpectedly small";
  EXPECT_GE(block_mode, 5u) << "block-pipeline corpus coverage too thin";
  EXPECT_GE(adaptive, 6u) << "adaptive-adversary corpus coverage too thin";
  EXPECT_GE(skewed, 3u) << "clock-skew corpus coverage too thin";
  EXPECT_GE(durable, 8u) << "durable-storage corpus coverage too thin";
}

// --- Repro lines -------------------------------------------------------------

void ExpectRoundTrip(const RunConfig& cfg) {
  RunConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseReproLine(cfg.ReproLine(), &parsed, &error))
      << error << "\n  line: " << cfg.ReproLine();
  EXPECT_EQ(parsed, cfg) << "line: " << cfg.ReproLine() << "\n  parsed: "
                         << parsed.ReproLine();
}

// Every corpus line is a repro line as ReproLine prints it, so a failure's
// repro output can be pasted into the corpus and the corpus can be pasted
// onto a check_runner command line.
TEST(ReproLineTest, CorpusLinesAreCanonicalReproLines) {
  std::vector<std::string> lines;
  std::vector<RunConfig> corpus = LoadSeedCorpus(&lines);
  ASSERT_EQ(corpus.size(), lines.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(corpus[i].ReproLine(), "check_runner " + lines[i]);
    ExpectRoundTrip(corpus[i]);
  }
}

// Every cell of a grid that spans all seven protocols and every run flag
// at a non-default value parses back to itself.
TEST(ReproLineTest, ExpandedGridCellsRoundTrip) {
  SweepOptions grid;
  grid.protocols = KnownProtocols();
  grid.nemeses = {
      {.crash = true},
      {.crash = true, .partition = true, .delay = true, .byzantine = true},
      {.crash = true, .torn_write = true, .lost_flush = true}};
  grid.cluster_sizes = {4, 7};
  grid.base.txns = 25;
  grid.base.num_shards = 3;
  grid.base.seed = 11;
  grid.base.quorum_slack = 1;
  grid.base.block_max_txns = 16;
  grid.base.clock_skew_ppm = -150'000;
  grid.base.mutate_recovery = true;
  std::set<AdversaryMode> modes;
  size_t cells = 0;
  for (const auto& [mode, name] : NameTable<AdversaryMode>::rows) {
    for (bool durable : {false, true}) {
      grid.base.adversary = mode;
      grid.base.durable = durable;
      for (const RunConfig& cell : grid.Expand()) {
        ExpectRoundTrip(cell);
        modes.insert(cell.adversary);
        ++cells;
      }
    }
  }
  EXPECT_EQ(modes.size(), std::size(NameTable<AdversaryMode>::rows));
  EXPECT_GT(cells, 100u);
}

// Text is read only at the parse edge: an unknown name or a zero size is
// refused there, by a repro line and by check_runner's flags alike (which
// read an axis through `sweep` and every other flag into the base config),
// so no RunConfig can carry one.
TEST(RunFlagTest, RejectsUnknownNamesAndZeroSizes) {
  const std::pair<std::string, std::string> bad[] = {
      {"--nemesis", "crahs"},  {"--nemesis", "crash;crahs"},
      {"--protocol", "rafft"}, {"--adversary", "meteor"},
      {"--num-shards", "0"},   {"--cluster-size", "0"},
  };
  for (const auto& [name, value] : bad) {
    std::string line = "--protocol sharper " + name + " " + value;
    RunConfig cfg;
    std::string error;
    EXPECT_FALSE(ParseReproLine(line, &cfg, &error)) << line;
    const RunFlag* flag = FindRunFlag(name);
    ASSERT_NE(flag, nullptr) << name;
    SweepOptions options;
    EXPECT_FALSE(flag->sweep ? flag->sweep(value, &options)
                             : flag->parse(value, &options.base))
        << line;
  }
  // One bad item fails the whole axis.
  SweepOptions options;
  EXPECT_FALSE(FindRunFlag("--cluster-size")->sweep("4,0", &options));
  EXPECT_FALSE(FindRunFlag("--protocol")->sweep("pbft,rafft", &options));
  ASSERT_TRUE(FindRunFlag("--nemesis")->sweep("none;crash", &options));
  EXPECT_EQ(options.nemeses,
            (std::vector<NemesisProfile>{{}, {.crash = true}}));
  ASSERT_TRUE(FindRunFlag("--protocol")->sweep("all", &options));
  EXPECT_EQ(options.protocols, KnownProtocols());
}

// The corpus pins the output of every flag but the two mutations.
TEST(ReproLineTest, PrintsTheMutationFlags) {
  RunConfig everything;
  everything.cluster_size = 7;
  everything.quorum_slack = 1;
  everything.block_max_txns = 25;
  everything.adversary = AdversaryMode::kLeader;
  everything.clock_skew_ppm = 150'000;
  everything.durable = true;
  everything.mutate_recovery = true;
  EXPECT_EQ(everything.ReproLine(),
            "check_runner --protocol pbft --cluster-size 7 --nemesis crash "
            "--txns 40 --seeds 1 --seed-base 0 --mutate-quorum 1 "
            "--block-max-txns 25 --adversary leader --clock-skew 150000 "
            "--durable --mutate-recovery");
}

// Expand leaves a non-sharded cell's num_shards at its default: ReproLine
// does not print it there, but MixSeed reads it, so any other value would
// print a repro line that replays a different run.
TEST(ReproLineTest, NonShardedCellsKeepDefaultShardCount) {
  SweepOptions grid;
  grid.protocols = {Protocol::kPbft, Protocol::kAhl};
  grid.base.num_shards = 3;
  std::vector<RunConfig> cells = grid.Expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].num_shards, RunConfig().num_shards);
  EXPECT_EQ(cells[1].num_shards, 3u);
}

// Expand takes protocol, nemesis and cluster size from the axes alone.
TEST(ReproLineTest, AxesOverrideTheBaseConfig) {
  SweepOptions grid;
  grid.protocols = {Protocol::kPbft};
  grid.base.protocol = Protocol::kRaft;
  grid.base.nemesis = {.delay = true};
  grid.base.cluster_size = 5;
  std::vector<RunConfig> cells = grid.Expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].protocol, Protocol::kPbft);
  EXPECT_EQ(cells[0].nemesis, NemesisProfile{.crash = true});
  EXPECT_EQ(cells[0].cluster_size, 4u);
}

}  // namespace
}  // namespace pbc::check
