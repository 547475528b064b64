// Tests for the adaptive adversary layer (src/check/adversary.*), the
// clock-skew nemesis, and the hardened serialization/corpus plumbing:
//  * exhaustiveness — every name table (NemesisKind, ByzantineMode,
//    Protocol, AdversaryMode) round-trips with unique names, and every
//    NemesisKind's ToJson() and Describe() carry its name;
//  * a fault-budget property over 200 seeded adaptive schedules across
//    all four adversary modes (max_faulty never exceeded at any instant,
//    never_crash nodes never targeted, fault-free tail respected);
//  * determinism — adaptive runs are pure functions of (config, seed),
//    their recorded traces replay statically, and a replay makes the
//    same fault calls as the live run;
//  * clock-skew semantics (timer scaling, not message latency) and
//    composition with the adversary;
//  * the known PBFT no-state-transfer gap, pinned as an expected
//    liveness gap under sustained leader churn (this test flips red the
//    day state transfer lands — update it then);
//  * the known PBFT quorum gap above n = 4 (f stays 1), pinned as an
//    expected chain-agreement violation.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/adversary.h"
#include "check/harness.h"
#include "check/nemesis.h"
#include "check/runner.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pbc::check {
namespace {

// --- Exhaustiveness: the name tables ----------------------------------------

// A name table lists every value once, in declaration order, under a
// distinct name that FromName maps back; anything else is unknown.
template <typename E>
void ExpectNameTableRoundTrips() {
  std::set<std::string> names;
  size_t index = 0;
  for (const auto& [value, name] : NameTable<E>::rows) {
    EXPECT_EQ(static_cast<size_t>(value), index++) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_STREQ(NameOf(value), name);
    E back;
    ASSERT_TRUE(FromName(name, &back)) << name;
    EXPECT_EQ(back, value) << name;
  }
  E unused;
  EXPECT_FALSE(FromName("meteor", &unused));
  EXPECT_FALSE(FromName("", &unused));
}

TEST(NemesisKindTest, NameTableRoundTripsEveryKind) {
  ExpectNameTableRoundTrips<NemesisKind>();
}

TEST(NameTableTest, ByzantineModeAndProtocolTablesRoundTrip) {
  ExpectNameTableRoundTrips<consensus::ByzantineMode>();
  ExpectNameTableRoundTrips<Protocol>();
}

// Builds an event of the given kind with every relevant field populated,
// so Describe()/ToJson() exercise their kind-specific arms.
NemesisEvent EventOfKind(NemesisKind kind) {
  NemesisEvent ev;
  ev.at = 1'000;
  ev.kind = kind;
  ev.window = 3;
  ev.node = 2;
  ev.groups = {{0, 1}, {2, 3}};
  ev.from = 1;
  ev.to = 2;
  ev.latency = {20'000, 2'000};
  ev.replica_index = 1;
  ev.mode = consensus::ByzantineMode::kEquivocate;
  ev.skew_ppm = 150'000;
  ev.skew_offset_us = 250;
  return ev;
}

TEST(NemesisKindTest, DescribeAndToJsonCoverEveryKind) {
  for (const auto& [kind, name] : NameTable<NemesisKind>::rows) {
    NemesisEvent ev = EventOfKind(kind);
    EXPECT_EQ(ev.ToJson().At("kind").str(), name);
    EXPECT_NE(ev.Describe().find(std::string("kind=") + name),
              std::string::npos)
        << "Describe() of " << name << ": " << ev.Describe();
  }
  // The clock-skew arm carries its payload through both serializations.
  NemesisEvent skew = EventOfKind(NemesisKind::kClockSkew);
  EXPECT_NE(skew.Describe().find("rate_ppm=150000"), std::string::npos);
  EXPECT_NE(skew.ToJson().Dump().find("rate_ppm"), std::string::npos);
}

// --- Exhaustiveness: AdversaryMode + corpus parser ---------------------------

TEST(AdversaryModeTest, NameTableRoundTripsEveryMode) {
  ExpectNameTableRoundTrips<AdversaryMode>();
}

TEST(SeedCorpusParserTest, AcceptsEveryAdversaryModeToken) {
  for (const auto& [mode, name] : NameTable<AdversaryMode>::rows) {
    RunConfig cfg;
    std::string error;
    std::string line = "--protocol pbft --nemesis none --seeds 1 "
                       "--seed-base 7 --adversary " +
                       std::string(name);
    ASSERT_TRUE(ParseReproLine(line, &cfg, &error)) << error;
    EXPECT_EQ(cfg.adversary, mode);
    EXPECT_EQ(cfg.seed, 7u);
  }
}

TEST(SeedCorpusParserTest, ParsesTrailingTokensInAnyOrder) {
  RunConfig cfg;
  std::string error;
  ASSERT_TRUE(ParseReproLine("--clock-skew 100000 --adversary churn "
                             "--seed-base 2 --protocol raft",
                             &cfg, &error))
      << error;
  EXPECT_EQ(cfg.protocol, Protocol::kRaft);
  EXPECT_EQ(cfg.seed, 2u);
  EXPECT_EQ(cfg.adversary, AdversaryMode::kChurn);
  EXPECT_EQ(cfg.clock_skew_ppm, 100'000);
  RunConfig cfg2;
  ASSERT_TRUE(ParseReproLine("check_runner --durable --block-max-txns 25 "
                             "--protocol pbft --adversary leader",
                             &cfg2, &error))
      << error;
  EXPECT_EQ(cfg2.block_max_txns, 25u);
  EXPECT_EQ(cfg2.adversary, AdversaryMode::kLeader);
  EXPECT_TRUE(cfg2.durable);
}

TEST(SeedCorpusParserTest, RejectsMalformedLines) {
  RunConfig cfg;
  std::string error;
  EXPECT_FALSE(ParseReproLine("--protocol", &cfg, &error));
  EXPECT_FALSE(ParseReproLine("--txns 2x", &cfg, &error));
  EXPECT_FALSE(ParseReproLine("--seeds 2", &cfg, &error))
      << "a repro line names exactly one run";
  EXPECT_FALSE(ParseReproLine("--no-shrink", &cfg, &error))
      << "sweep settings are not run flags";
  EXPECT_FALSE(ParseReproLine("pbft none 1", &cfg, &error));
  EXPECT_FALSE(ParseReproLine("--protocol pbft --meteor 3", &cfg, &error));
  EXPECT_FALSE(ParseReproLine("--adversary meteor", &cfg, &error));
  EXPECT_NE(error.find("meteor"), std::string::npos);
}

// --- Fault-budget property over seeded adaptive schedules --------------------

// Replays a recorded trace's budget accounting: walks events time-ordered,
// applying fault-ending events before fault-starting ones at equal
// timestamps (matching the simulator's FIFO order: a recover scheduled
// long ago fires before this tick's new crash).
void AssertBudgetRespected(const NemesisSchedule& trace,
                           const NemesisTopology& topo,
                           const std::string& label) {
  const auto& group = topo.groups[0];
  std::set<sim::NodeId> protected_nodes(topo.never_crash.begin(),
                                        topo.never_crash.end());
  uint32_t active = 0;
  std::map<uint64_t, int> open_crashes;  // window -> balance
  const std::vector<NemesisEvent>& events = trace.events();
  for (size_t i = 0; i < events.size();) {
    size_t j = i;
    while (j < events.size() && events[j].at == events[i].at) ++j;
    for (size_t k = i; k < j; ++k) {  // endings first
      if (events[k].kind == NemesisKind::kRecover) {
        ASSERT_GT(active, 0u) << label;
        --active;
        --open_crashes[events[k].window];
      }
    }
    for (size_t k = i; k < j; ++k) {  // then starts
      const NemesisEvent& ev = events[k];
      if (ev.kind == NemesisKind::kCrash) {
        EXPECT_EQ(protected_nodes.count(ev.node), 0u)
            << label << ": crashed protected node " << ev.node;
        ++active;
        ++open_crashes[ev.window];
      } else if (ev.kind == NemesisKind::kByzantine) {
        EXPECT_EQ(protected_nodes.count(ev.node), 0u)
            << label << ": flipped protected node " << ev.node;
        ++active;  // Byzantine members hold their budget slot for good
      }
      EXPECT_GE(ev.window, 1u) << label << " (0 is the skew overlay)";
    }
    EXPECT_LE(active, group.max_faulty)
        << label << " at t=" << events[i].at;
    i = j;
  }
  for (const auto& [window, balance] : open_crashes) {
    EXPECT_EQ(balance, 0) << label << ": unpaired crash in window "
                          << window;
  }
}

NemesisTopology AdversaryTopology(bool bft, bool with_protected) {
  NemesisTopology topo;
  NemesisTopology::Group group;
  for (sim::NodeId id = 0; id < 4; ++id) {
    group.nodes.push_back(id);
    topo.all_nodes.push_back(id);
  }
  group.max_faulty = 1;
  topo.groups.push_back(std::move(group));
  topo.partition_whole_network = true;
  topo.supports_byzantine = bft;
  if (with_protected) topo.never_crash = {1};
  return topo;
}

constexpr sim::Time kSyntheticHorizon = 60'000'000;

// A bare network with a trace attached and no protocol: what a run's
// faults do to it is all there is to see. The FaultApplier's Byzantine
// hook logs each flip.
struct BareNetwork {
  BareNetwork(const BareNetwork&) = delete;
  BareNetwork& operator=(const BareNetwork&) = delete;
  explicit BareNetwork(uint64_t seed) : sim(seed), net(&sim) {
    net.AttachObs(nullptr, &trace);
    faults.net = &net;
    faults.set_byzantine = [this](const NemesisEvent& ev) {
      flips.push_back("t=" + std::to_string(sim.now()) + " flip replica=" +
                      std::to_string(ev.replica_index) + " mode=" +
                      std::to_string(static_cast<int>(ev.mode)));
    };
  }

  // Samples every directed link's latency each millisecond and logs each
  // change, so link-latency faults show up next to the traced ones.
  void ProbeLinks() {
    sim.Schedule(1000, [this] {
      for (sim::NodeId from = 0; from < 4; ++from) {
        for (sim::NodeId to = 0; to < 4; ++to) {
          if (from == to) continue;
          sim::LinkLatency now = net.EffectiveLatency(from, to);
          sim::LinkLatency& last = links[{from, to}];
          if (now.base_us != last.base_us || now.jitter_us != last.jitter_us) {
            latency_changes.push_back(
                "t=" + std::to_string(sim.now()) + " link " +
                std::to_string(from) + "->" + std::to_string(to) + " " +
                std::to_string(now.base_us) + "/" +
                std::to_string(now.jitter_us));
            last = now;
          }
        }
      }
      if (sim.now() < kSyntheticHorizon) ProbeLinks();
    });
  }

  // Every fault the network saw, with its simulated time.
  std::vector<std::string> Observed() const {
    std::vector<std::string> seen;
    for (const obs::TraceEvent& ev : trace.Snapshot()) {
      seen.push_back("t=" + std::to_string(ev.at_us) + " " +
                     obs::TraceKindName(ev.kind) + " node=" +
                     std::to_string(ev.a) + " arg=" + std::to_string(ev.arg));
    }
    seen.insert(seen.end(), latency_changes.begin(), latency_changes.end());
    seen.insert(seen.end(), flips.begin(), flips.end());
    return seen;
  }

  sim::Simulator sim;
  sim::Network net;
  obs::TraceLog trace{1 << 16};
  FaultApplier faults;
  std::vector<std::string> flips;
  /// Last sampled latency per directed link (LinkLatency's default is the
  /// network's default).
  std::map<std::pair<sim::NodeId, sim::NodeId>, sim::LinkLatency> links;
  std::vector<std::string> latency_changes;
};

// Runs one synthetic adaptive schedule on a bare network (a fresh one
// unless `bare` is given), with an observer that rotates the leader every
// 2 s — a moving target for the adversary to chase.
NemesisSchedule SyntheticTrace(AdversaryMode mode, uint64_t seed,
                               const NemesisTopology& topo,
                               BareNetwork* bare = nullptr) {
  BareNetwork fresh(seed);
  BareNetwork& w = bare != nullptr ? *bare : fresh;
  ReactiveNemesis::Options opts;
  opts.mode = mode;
  opts.topology = topo;
  opts.horizon = kSyntheticHorizon;
  opts.seed = seed;
  ReactiveNemesis adversary(opts, &w.sim, &w.faults, [&w](size_t) {
    GroupObservation obs;
    obs.view = w.sim.now() / 2'000'000;
    obs.has_leader = true;
    obs.leader_index = obs.view % 4;
    obs.has_next_leader = true;
    obs.next_leader_index = (obs.view + 1) % 4;
    return obs;
  });
  adversary.Arm();
  w.sim.Run(kSyntheticHorizon);
  // Crash faults drain by the horizon; a permanent Byzantine flip keeps
  // its budget slot, so the residue is at most the group's f.
  EXPECT_LE(adversary.active_faults(0), topo.groups[0].max_faulty);
  return adversary.Trace();
}

TEST(AdversaryBudgetTest, TwoHundredSchedulesRespectBudgetAndProtection) {
  constexpr sim::Time kHorizon = kSyntheticHorizon;
  size_t schedules = 0;
  size_t nonempty = 0;
  for (const auto& [mode, name] : NameTable<AdversaryMode>::rows) {
    for (uint64_t seed = 0; seed < 50; ++seed) {
      NemesisTopology topo =
          AdversaryTopology(/*bft=*/seed % 2 == 0,
                            /*with_protected=*/seed % 5 == 0);
      NemesisSchedule trace = SyntheticTrace(mode, seed, topo);
      ++schedules;
      std::string label = std::string(name) + "/seed=" + std::to_string(seed);
      if (mode == AdversaryMode::kRandom) {
        // kRandom is not reactive: the adaptive layer must stay silent.
        EXPECT_TRUE(trace.empty()) << label;
        continue;
      }
      if (!trace.empty()) ++nonempty;
      AssertBudgetRespected(trace, topo, label);
      for (const NemesisEvent& ev : trace.events()) {
        switch (ev.kind) {
          case NemesisKind::kCrash:
          case NemesisKind::kPartition:
          case NemesisKind::kDelay:
          case NemesisKind::kByzantine:
            EXPECT_LE(ev.at, kHorizon * 55 / 100) << label;
            break;
          case NemesisKind::kRecover:
          case NemesisKind::kHeal:
          case NemesisKind::kClearDelay:
            EXPECT_LE(ev.at, kHorizon * 70 / 100) << label;
            break;
          case NemesisKind::kClockSkew:
            ADD_FAILURE() << label << ": adversary emitted clock skew";
            break;
          case NemesisKind::kTornWrite:
          case NemesisKind::kLostFlush:
          case NemesisKind::kRestoreFlush:
            ADD_FAILURE() << label << ": adversary emitted a disk fault";
            break;
        }
      }
    }
  }
  EXPECT_EQ(schedules, 200u);
  // The three reactive modes must actually attack (150 schedules).
  EXPECT_GE(nonempty, 140u);
}

TEST(AdversaryBudgetTest, ChurnRetargetsProtectedLeaderToSuccessor) {
  NemesisTopology topo = AdversaryTopology(/*bft=*/false,
                                           /*with_protected=*/true);
  std::set<sim::NodeId> crashed;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    NemesisSchedule trace = SyntheticTrace(AdversaryMode::kChurn, seed, topo);
    for (const NemesisEvent& ev : trace.events()) {
      if (ev.kind == NemesisKind::kCrash) crashed.insert(ev.node);
    }
  }
  EXPECT_EQ(crashed.count(1), 0u) << "protected node crashed";
  EXPECT_GE(crashed.size(), 2u) << "churn should still chase leadership";
}

TEST(AdversaryBudgetTest, LeaderModeFlipsOnlyBftGroups) {
  BareNetwork bft(3);
  SyntheticTrace(AdversaryMode::kLeader, 3,
                 AdversaryTopology(/*bft=*/true, false), &bft);
  EXPECT_EQ(bft.flips.size(), 1u) << "exactly one permanent Byzantine flip";
  BareNetwork cft(3);
  SyntheticTrace(AdversaryMode::kLeader, 3,
                 AdversaryTopology(/*bft=*/false, false), &cft);
  EXPECT_TRUE(cft.flips.empty()) << "CFT groups must never be flipped";
}

TEST(AdversaryBudgetTest, QuorumModeSplitsAtTheQuorumEdge) {
  // BFT n=4, f=1: leader side must be f+1 = 2 (both sides short of 2f+1).
  NemesisSchedule bft_trace = SyntheticTrace(
      AdversaryMode::kQuorum, 1, AdversaryTopology(/*bft=*/true, false));
  // CFT n=4, f=1: the leader is stranded in a minority of f = 1.
  NemesisSchedule cft_trace = SyntheticTrace(
      AdversaryMode::kQuorum, 1, AdversaryTopology(/*bft=*/false, false));
  size_t bft_cuts = 0, cft_cuts = 0;
  for (const NemesisEvent& ev : bft_trace.events()) {
    if (ev.kind != NemesisKind::kPartition) continue;
    ASSERT_EQ(ev.groups.size(), 2u);
    EXPECT_EQ(ev.groups[0].size(), 2u);
    ++bft_cuts;
  }
  for (const NemesisEvent& ev : cft_trace.events()) {
    if (ev.kind != NemesisKind::kPartition) continue;
    ASSERT_EQ(ev.groups.size(), 2u);
    EXPECT_EQ(ev.groups[0].size(), 1u);
    ++cft_cuts;
  }
  EXPECT_GE(bft_cuts, 1u);
  EXPECT_GE(cft_cuts, 1u);
}

// --- Determinism of observation ----------------------------------------------

TEST(AdversaryDeterminismTest, SyntheticTraceIsAPureFunctionOfSeed) {
  NemesisTopology topo = AdversaryTopology(/*bft=*/true, false);
  for (AdversaryMode mode :
       {AdversaryMode::kLeader, AdversaryMode::kQuorum, AdversaryMode::kChurn}) {
    NemesisSchedule a = SyntheticTrace(mode, 11, topo);
    NemesisSchedule b = SyntheticTrace(mode, 11, topo);
    EXPECT_EQ(a.Describe(), b.Describe()) << NameOf(mode);
  }
  NemesisSchedule a = SyntheticTrace(AdversaryMode::kChurn, 11, topo);
  NemesisSchedule c = SyntheticTrace(AdversaryMode::kChurn, 12, topo);
  EXPECT_NE(a.Describe(), c.Describe()) << "seed must matter";
}

TEST(AdversaryDeterminismTest, AdaptiveRunIsAPureFunctionOfConfigAndSeed) {
  RunConfig cfg;
  cfg.protocol = Protocol::kPbft;
  cfg.nemesis = {};
  cfg.adversary = AdversaryMode::kLeader;
  cfg.seed = 2;
  cfg.txns = 20;
  RunResult a = RunOne(cfg);
  RunResult b = RunOne(cfg);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.committed_min, b.committed_min);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.schedule.Describe(), b.schedule.Describe());
  EXPECT_FALSE(a.schedule.empty()) << "adversary injected nothing";
}

// The recorded trace must replay *statically* (adversary disarmed) and
// still reproduce the violation it found live — the property ddmin
// shrinking and parallel byte-identity stand on.
TEST(AdversaryDeterminismTest, RecordedTraceReplaysStatically) {
  RunConfig cfg;
  cfg.protocol = Protocol::kPbft;
  cfg.nemesis = {};
  cfg.adversary = AdversaryMode::kLeader;
  cfg.seed = 2;
  cfg.txns = 20;
  cfg.quorum_slack = 1;  // seeded quorum bug the leader adversary catches
  RunResult live = RunOne(cfg);
  ASSERT_FALSE(live.ok()) << "expected the leader adversary to catch the "
                             "quorum mutation at this seed";
  RunResult replay = RunWithSchedule(cfg, live.schedule);
  EXPECT_FALSE(replay.ok()) << "static replay of the trace lost the bug";
}

// Live faults and replayed ones go through one FaultApplier, so applying
// a recorded trace to a fresh network must make every fault call the live
// adversary made, at the same simulated time: the same crashes, recovers,
// partitions, heals, link latencies and Byzantine flips.
TEST(AdversaryDeterminismTest, TraceReplayMakesTheLiveFaultCalls) {
  NemesisTopology topo = AdversaryTopology(/*bft=*/true, false);
  for (AdversaryMode mode : {AdversaryMode::kLeader, AdversaryMode::kQuorum,
                             AdversaryMode::kChurn}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      std::string label =
          std::string(NameOf(mode)) + "/seed=" + std::to_string(seed);
      BareNetwork live(seed);
      live.ProbeLinks();
      NemesisSchedule trace = SyntheticTrace(mode, seed, topo, &live);
      BareNetwork replay(seed);
      replay.ProbeLinks();
      trace.Apply(&replay.sim, &replay.faults);
      replay.sim.Run(kSyntheticHorizon);
      EXPECT_FALSE(live.Observed().empty()) << label;
      EXPECT_EQ(live.Observed(), replay.Observed()) << label;
      // Every window closed: each link is back at the default latency.
      for (const auto& [link, latency] : replay.links) {
        EXPECT_EQ(latency.base_us, sim::LinkLatency{}.base_us) << label;
        EXPECT_EQ(latency.jitter_us, sim::LinkLatency{}.jitter_us) << label;
      }
    }
  }
}

TEST(AdversaryDeterminismTest, ShardedProtocolsRejectAdaptiveModes) {
  RunConfig cfg;
  cfg.protocol = Protocol::kSharper;
  cfg.nemesis = {.crash = true};
  cfg.adversary = AdversaryMode::kLeader;
  cfg.txns = 10;
  RunResult r = RunOne(cfg);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].invariant, std::string("config"));
}

// --- Clock skew ---------------------------------------------------------------

TEST(ClockSkewTest, ScalesTimersNotMessages) {
  sim::Simulator sim(1);
  sim::Network net(&sim);
  // +100000 ppm = 10% fast clock: a requested 1 s fires after ~0.909 s.
  net.SetClockSkew(1, {100'000, 0});
  EXPECT_EQ(net.SkewedTimerDelay(1, 1'000'000), 909'090u);
  // -500000 ppm = half speed: 1 s stretches to 2 s.
  net.SetClockSkew(2, {-500'000, 0});
  EXPECT_EQ(net.SkewedTimerDelay(2, 1'000'000), 2'000'000u);
  // Offset adds after scaling; unskewed nodes are identity.
  net.SetClockSkew(3, {0, 250});
  EXPECT_EQ(net.SkewedTimerDelay(3, 1'000), 1'250u);
  EXPECT_EQ(net.SkewedTimerDelay(0, 777u), 777u);
  // Extreme rates clamp instead of freezing time or going negative.
  net.SetClockSkew(4, {-2'000'000, 0});
  EXPECT_EQ(net.clock_skew(4).rate_ppm, -900'000);
  net.SetClockSkew(5, {100'000'000, 0});
  EXPECT_EQ(net.clock_skew(5).rate_ppm, 9'000'000);
  // A fast clock never rounds a positive delay to zero.
  EXPECT_GE(net.SkewedTimerDelay(5, 1), 1u);
  // {0,0} removes the entry entirely.
  net.SetClockSkew(1, {0, 0});
  EXPECT_EQ(net.clock_skew(1).rate_ppm, 0);
  // Message latency is untouched by skew.
  EXPECT_EQ(net.EffectiveLatency(1, 2).base_us,
            net.EffectiveLatency(0, 3).base_us);
}

TEST(ClockSkewTest, SkewedRunsAreDeterministicAndDistinct) {
  RunConfig cfg;
  cfg.protocol = Protocol::kRaft;
  cfg.nemesis = {.crash = true};
  cfg.seed = 0;
  cfg.txns = 15;
  RunResult plain = RunOne(cfg);
  cfg.clock_skew_ppm = 200'000;
  RunResult skewed = RunOne(cfg);
  RunResult again = RunOne(cfg);
  EXPECT_EQ(skewed.sim_events, again.sim_events);
  EXPECT_EQ(skewed.schedule.Describe(), again.schedule.Describe());
  EXPECT_NE(plain.sim_events, skewed.sim_events)
      << "skew must not be a silent no-op";
  EXPECT_TRUE(skewed.ok());
  // The overlay is window 0, one event per node, present in the schedule.
  size_t skew_events = 0;
  for (const NemesisEvent& ev : skewed.schedule.events()) {
    if (ev.kind == NemesisKind::kClockSkew) {
      EXPECT_EQ(ev.window, 0u);
      EXPECT_EQ(ev.at, 0u);
      // Even node indices run fast, odd run slow.
      EXPECT_EQ(ev.skew_ppm, ev.node % 2 == 0 ? 200'000 : -200'000);
      ++skew_events;
    }
  }
  EXPECT_EQ(skew_events, cfg.cluster_size);
}

TEST(ClockSkewTest, ComposesWithAdaptiveAdversary) {
  RunConfig cfg;
  cfg.protocol = Protocol::kRaft;
  cfg.nemesis = {};
  cfg.adversary = AdversaryMode::kChurn;
  cfg.clock_skew_ppm = 100'000;
  cfg.seed = 2;
  cfg.txns = 20;
  RunResult r = RunOne(cfg);
  EXPECT_TRUE(r.ok()) << "corpus line 'raft none 2 adversary=churn "
                         "skew=100000' regressed";
  bool has_skew = false, has_crash = false;
  for (const NemesisEvent& ev : r.schedule.events()) {
    has_skew |= ev.kind == NemesisKind::kClockSkew;
    has_crash |= ev.kind == NemesisKind::kCrash;
  }
  EXPECT_TRUE(has_skew);
  EXPECT_TRUE(has_crash);
  EXPECT_EQ(RunOne(cfg).schedule.Describe(), r.schedule.Describe());
}

// --- The PBFT state-transfer gap, pinned --------------------------------------

// PBFT in this tree has no state transfer / checkpoint sync: a replica
// that misses commits while crashed never catches up, so sustained
// leader churn leaves `committed_min` stranded even when the cluster as
// a whole stays live. This is a *known, documented* liveness gap (see
// DESIGN.md §12 and ROADMAP item 5) — the EXPECT_LT below is the pin.
// When state transfer lands, this test fails: flip it to EXPECT_EQ and
// retire the gap note.
TEST(StateTransferGapTest, PbftChurnStrandsLaggardsRaftCatchesUp) {
  size_t pbft_gaps = 0;
  bool pbft_live_with_gap = false;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    RunConfig cfg;
    cfg.protocol = Protocol::kPbft;
    cfg.nemesis = {};
    cfg.adversary = AdversaryMode::kChurn;
    cfg.seed = seed;
    cfg.txns = 20;
    RunResult r = RunOne(cfg);
    EXPECT_TRUE(r.ok()) << "churn must degrade liveness, never safety";
    if (r.committed_min < r.committed) ++pbft_gaps;
    if (r.live && r.committed_min + 5 <= r.committed) {
      pbft_live_with_gap = true;  // cluster fully live, one replica stuck
    }
  }
  EXPECT_GE(pbft_gaps, 3u) << "PBFT laggard gap vanished — did state "
                              "transfer land? Update this pin.";
  EXPECT_TRUE(pbft_live_with_gap);

  // Raft's AppendEntries replays the log to recovered followers: same
  // adversary, no gap. This is the control that makes the PBFT pin
  // meaningful (the gap is protocol-specific, not a harness artifact).
  for (uint64_t seed = 0; seed < 4; ++seed) {
    RunConfig cfg;
    cfg.protocol = Protocol::kRaft;
    cfg.nemesis = {};
    cfg.adversary = AdversaryMode::kChurn;
    cfg.seed = seed;
    cfg.txns = 20;
    RunResult r = RunOne(cfg);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.committed_min, r.committed) << "seed=" << seed;
  }
}

// --- Known gap: PBFT keeps f = 1 above n = 4 --------------------------------

// Cluster keeps ClusterConfig's default f = 1 at every n >= 4 (see
// consensus/cluster.h), so at n = 7 PBFT commits on BftQuorum() = 2f+1 = 3
// votes, and two 3-vote quorums need not intersect; HotStuff waits for
// n - f = 6. The harness budgets the honest (n-1)/3 = 2 faults, so a
// {4,5,6}|{0,1,2,3} partition plus one crash forks PBFT's chain. Pinned,
// not fixed: deriving f from n also moves PBFT's simulated commit latency,
// so the fix lands with a re-baselined benchmark (ROADMAP). This test flips
// red the day it does; replace it with a positive test then.
bool ForksChain(const std::string& repro) {
  RunConfig cfg;
  std::string error;
  EXPECT_TRUE(ParseReproLine(repro, &cfg, &error)) << error;
  for (const Violation& v : RunOne(cfg).violations) {
    if (v.invariant == "chain-agreement") return true;
  }
  return false;
}

TEST(PbftQuorumGapTest, LargeClustersCommitOnNonIntersectingQuorums) {
  const std::string at7 =
      "--cluster-size 7 --nemesis crash,partition --txns 40 --seeds 1 "
      "--seed-base 17";
  EXPECT_TRUE(ForksChain("--protocol pbft " + at7))
      << "PBFT at n=7 no longer forks: did f start following n? Update "
         "this pin.";
  // The first three forking seeds of a 0-199 scan.
  for (const char* seed : {"18", "24", "61"}) {
    EXPECT_TRUE(ForksChain("--protocol pbft --cluster-size 6 --nemesis "
                           "crash,partition --txns 40 --seed-base " +
                           std::string(seed)))
        << "n=6 seed " << seed;
  }
  // The control: HotStuff's n - f quorum survives the same schedule, so
  // the fork is PBFT's quorum size, not the harness's fault budget.
  EXPECT_FALSE(ForksChain("--protocol hotstuff " + at7));
}

}  // namespace
}  // namespace pbc::check
