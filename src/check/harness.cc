#include "check/harness.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string_view>
#include <type_traits>

#include "check/adversary.h"
#include "check/durable.h"
#include "consensus/cluster.h"
#include "consensus/hotstuff.h"
#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "consensus/tendermint.h"
#include "shard/sharper.h"
#include "shard/two_phase.h"
#include "sim/world.h"
#include "txn/transaction.h"

namespace pbc::check {

namespace {

constexpr sim::Time kConsensusHorizon = 60'000'000;
constexpr sim::Time kShardHorizon = 300'000'000;
constexpr sim::Time kCheckInterval = 500'000;

/// Simulated-time budget per family, matching the repo's test ceilings.
sim::Time HorizonFor(const RunConfig& cfg) {
  return InFamily(cfg.protocol, ProtocolFamily::kSharded) ? kShardHorizon
                                                          : kConsensusHorizon;
}

/// Stable 64-bit mix of every run-determining field, so distinct configs
/// never share a simulator seed stream.
uint64_t MixSeed(const RunConfig& cfg) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  auto mix_name = [&mix](std::string_view name) {
    for (char c : name) mix(static_cast<uint64_t>(c));
  };
  mix_name(NameOf(cfg.protocol));
  mix_name(cfg.nemesis.ToString());
  mix(cfg.cluster_size);
  mix(cfg.num_shards);
  mix(cfg.txns);
  mix(cfg.quorum_slack);
  // Mixed only when set so pre-block-pipeline repro seeds keep their
  // exact RNG streams.
  if (cfg.block_max_txns > 0) mix(cfg.block_max_txns);
  // Same back-compat rule for the adaptive-adversary fields: default
  // values stay out of the stream so the existing seed corpus replays
  // byte-identically.
  if (cfg.adversary != AdversaryMode::kRandom) mix_name(NameOf(cfg.adversary));
  if (cfg.clock_skew_ppm != 0) {
    mix(static_cast<uint64_t>(cfg.clock_skew_ppm));
  }
  if (cfg.durable) mix(0x4653);  // "FS"
  if (cfg.mutate_recovery) mix(0x4D52);  // "MR"
  mix(cfg.seed);
  return h;
}

/// The schedule a run applies up front. An explicit one (a shrink probe
/// or a trace replay) is replayed as is, with any adaptive adversary
/// disarmed. Otherwise: the t=0 kClockSkew overlay under the reserved
/// window id 0 (even-indexed nodes run `clock_skew_ppm` fast, odd-indexed
/// ones that much slow, so two timers drift apart by up to ~2*ppm; window
/// 0 survives shrinking alongside the fault windows, ids >= 1), plus the
/// generated fault windows unless an adaptive adversary injects its own.
NemesisSchedule StaticSchedule(const RunConfig& cfg,
                               const NemesisTopology& topo, sim::Time horizon,
                               const NemesisSchedule* explicit_schedule) {
  if (explicit_schedule) return *explicit_schedule;
  std::vector<NemesisEvent> skew;
  for (size_t i = 0; cfg.clock_skew_ppm != 0 && i < topo.all_nodes.size();
       ++i) {
    NemesisEvent& ev = skew.emplace_back();
    ev.kind = NemesisKind::kClockSkew;
    ev.node = topo.all_nodes[i];
    ev.skew_ppm = i % 2 == 0 ? cfg.clock_skew_ppm : -cfg.clock_skew_ppm;
  }
  NemesisSchedule overlay = NemesisSchedule::FromEvents(std::move(skew));
  if (cfg.adversary != AdversaryMode::kRandom) return overlay;
  return NemesisSchedule::Merged(
      overlay, NemesisSchedule::Generate(cfg.nemesis, topo, horizon, cfg.seed));
}

/// The consensus settings every cluster of a run shares; `block_delay_us`
/// is the block pipeline's timer cut when `block_max_txns` enables it.
consensus::ClusterConfig ClusterConfigFor(const RunConfig& cfg,
                                          sim::Time block_delay_us) {
  consensus::ClusterConfig cc;
  cc.quorum_slack_for_test = cfg.quorum_slack;
  if (cfg.block_max_txns > 0) {
    cc.block.enabled = true;
    cc.block.max_txns = cfg.block_max_txns;
    cc.block.max_delay_us = block_delay_us;
  }
  return cc;
}

void FillResult(RunResult* result, const CheckerSuite& suite,
                const sim::World& w, NemesisSchedule schedule) {
  result->violations = suite.violations();
  result->coverage = suite.coverage();
  result->sim_events = w.sim.executed_events();
  result->sim_end_us = w.sim.now();
  result->schedule = std::move(schedule);
}

// --- Consensus-cluster runs ------------------------------------------------

/// Balanced-transfer workload: txn i moves an amount between two of a few
/// accounts via paired increments, so the model total stays 0 at every
/// point and conservation can be checked continuously.
txn::Transaction TransferTxn(size_t i) {
  constexpr uint64_t kAccounts = 8;
  txn::Transaction t;
  t.id = static_cast<txn::TxnId>(i + 1);
  uint64_t a = i % kAccounts;
  uint64_t b = (i * 5 + 3) % kAccounts;
  if (a == b) b = (b + 1) % kAccounts;
  int64_t amount = static_cast<int64_t>(i % 50) + 1;
  t.ops.push_back(txn::Op::Increment("acct" + std::to_string(a), -amount));
  t.ops.push_back(txn::Op::Increment("acct" + std::to_string(b), amount));
  return t;
}

template <typename R>
RunResult RunCluster(const RunConfig& cfg,
                     const NemesisSchedule* explicit_schedule) {
  const sim::Time horizon = HorizonFor(cfg);
  const bool bft = InFamily(cfg.protocol, ProtocolFamily::kBft);
  sim::World w(MixSeed(cfg));
  // Every fault of the run goes through here; Byzantine replicas and
  // disks set its hooks below.
  FaultApplier faults;
  faults.net = &w.net;

  consensus::ClusterConfig cc = ClusterConfigFor(cfg, 5000);
  cc.batch_size = 8;  // several sequences per run, so faults land mid-stream
  consensus::Cluster<R> cluster(&w.net, &w.registry, cfg.cluster_size, cc);

  NemesisTopology topo;
  NemesisTopology::Group group;
  for (size_t i = 0; i < cfg.cluster_size; ++i) {
    group.nodes.push_back(static_cast<sim::NodeId>(i));
    topo.all_nodes.push_back(static_cast<sim::NodeId>(i));
  }
  group.max_faulty =
      bft ? (cfg.cluster_size >= 4
                 ? static_cast<uint32_t>((cfg.cluster_size - 1) / 3)
                 : 1)
          : static_cast<uint32_t>((cfg.cluster_size - 1) / 2);
  topo.groups.push_back(std::move(group));
  topo.partition_whole_network = true;
  topo.supports_byzantine = bft;

  NemesisSchedule schedule =
      StaticSchedule(cfg, topo, horizon, explicit_schedule);

  CheckerSuite suite(&w.sim);
  auto chains =
      suite.AddChainCheckers({[&cluster] { return cluster.chains(); }});
  suite.Add(std::make_unique<CommitValidityChecker>(
      chains, [max_id = cfg.txns](txn::TxnId id) {
        return id >= 1 && id <= max_id;
      }));
  KvModelChecker* kv = suite.Add(std::make_unique<KvModelChecker>());

  // Durable storage: one sim::Fs shared by the cluster (per-node "n<i>/"
  // directories), a DurableLedger per replica persisting on every commit,
  // and the three crash-recovery checkers. The Fs seed is derived from the
  // config mix so the torn-write draws are a pure function of the run.
  std::unique_ptr<sim::Fs> fs;
  std::vector<std::unique_ptr<store::DurableLedger>> stores;
  SyncedCommitDurabilityChecker* synced = nullptr;
  if (cfg.durable) {
    fs = std::make_unique<sim::Fs>(MixSeed(cfg) ^ 0x4653ULL);
    std::vector<DurableTarget> targets;
    for (size_t i = 0; i < cluster.size(); ++i) {
      store::DurableLedger::Options so;
      so.dir = "n" + std::to_string(i);
      so.mutate_recovery = cfg.mutate_recovery;
      stores.push_back(std::make_unique<store::DurableLedger>(fs.get(), so));
      DurableTarget target;
      target.dir = so.dir;
      target.ledger = stores.back().get();
      target.chain = [&cluster, i] { return &cluster.replica(i)->chain(); };
      targets.push_back(std::move(target));
    }
    RecoverFn production = ProductionRecovery(cfg.mutate_recovery);
    suite.Add(std::make_unique<RecoveryEquivalenceChecker>(fs.get(), targets,
                                                           production));
    suite.Add(std::make_unique<SnapshotConvergenceChecker>(
        fs.get(), targets, production,
        ProductionRecovery(cfg.mutate_recovery, /*use_snapshot=*/false)));
    synced = suite.Add(std::make_unique<SyncedCommitDurabilityChecker>(
        fs.get(), targets, production));
    // Disk faults ride the crash choke point: a crash powers down the
    // node's directory (applying any armed tear); a recovery runs the
    // production repair path and reports it to the synced-commit checker.
    w.net.SetFaultListener([&w, fs = fs.get(), &stores, &cluster, synced](
                               sim::NodeId id, bool crashed) {
      size_t i = static_cast<size_t>(id);
      if (i >= stores.size()) return;
      std::string prefix = "n" + std::to_string(i) + "/";
      if (crashed) {
        fs->Crash(prefix);
      } else {
        store::DurableLedger::RecoveryReport report =
            stores[i]->RecoverAndResync(cluster.replica(i)->chain());
        synced->ObserveRecovery(i, report, w.sim.now());
      }
    });
  }

  for (size_t i = 0; i < cluster.size(); ++i) {
    store::DurableLedger* dl = cfg.durable ? stores[i].get() : nullptr;
    cluster.replica(i)->set_commit_listener(
        [kv, i, &w, dl, &cluster](sim::NodeId, uint64_t,
                                  const consensus::Batch& batch) {
          for (const txn::Transaction& t : batch.txns) {
            kv->OnCommit(i, t, w.sim.now());
          }
          if (dl != nullptr) dl->Persist(cluster.replica(i)->chain());
        });
  }
  suite.Add(std::make_unique<BalanceConservationChecker>(
      [kv] {
        int64_t total = 0;
        kv->model().ForEachLatest(
            [&total](const store::Key&, const store::VersionedValue& v) {
              total += txn::DecodeInt(v.value);
            });
        return total;
      },
      int64_t{0}));

  faults.set_byzantine = [&cluster](const NemesisEvent& ev) {
    if (ev.replica_index < cluster.size()) {
      cluster.replica(ev.replica_index)->set_byzantine_mode(ev.mode);
    }
  };
  if (cfg.durable) {
    faults.on_durable = [fs = fs.get()](const NemesisEvent& ev) {
      std::string prefix = "n" + std::to_string(ev.node) + "/";
      switch (ev.kind) {
        case NemesisKind::kTornWrite:
          fs->SetPendingTear(prefix, ev.tear_ppm);
          break;
        case NemesisKind::kLostFlush:
          fs->SetLoseFlushes(prefix, true);
          break;
        case NemesisKind::kRestoreFlush:
          fs->SetLoseFlushes(prefix, false);
          break;
        default:
          break;
      }
    };
  }
  schedule.Apply(&w.sim, &faults);

  std::unique_ptr<ReactiveNemesis> reactive;
  if (!explicit_schedule && cfg.adversary != AdversaryMode::kRandom) {
    ReactiveNemesis::Options opts;
    opts.mode = cfg.adversary;
    opts.topology = topo;
    opts.horizon = horizon;
    opts.seed = cfg.seed;
    // Observation: aggregate Status() across live replicas, trusting the
    // highest view that names a leader (a leader's self-claim wins ties
    // at its own view). Reads only; cannot perturb the run.
    auto observer = [&cluster, &w](size_t) {
      GroupObservation obs;
      bool found = false;
      for (size_t i = 0; i < cluster.size(); ++i) {
        if (w.net.IsCrashed(static_cast<sim::NodeId>(i))) continue;
        consensus::ReplicaStatus s = cluster.replica(i)->Status();
        obs.commit_index = std::max(obs.commit_index, s.commit_index);
        if (!s.knows_leader) continue;
        bool better = !found || s.view > obs.view ||
                      (s.view == obs.view && s.is_leader);
        if (better) {
          found = true;
          obs.has_leader = true;
          obs.leader_index = s.leader_index;
          obs.has_next_leader = s.knows_next_leader;
          obs.next_leader_index = s.next_leader_index;
          obs.view = s.view;
        }
      }
      return obs;
    };
    reactive = std::make_unique<ReactiveNemesis>(std::move(opts), &w.sim,
                                                 &faults, observer);
    reactive->Arm();
  }

  w.net.Start();
  // Pace submissions over the first half of the horizon so fault windows
  // overlap live traffic instead of an already-quiesced system.
  sim::Time spacing =
      cfg.txns > 0 ? std::max<sim::Time>(1, horizon / 2 / cfg.txns) : 1;
  for (size_t i = 0; i < cfg.txns; ++i) {
    w.sim.Schedule(static_cast<sim::Time>(i) * spacing,
                   [&cluster, t = TransferTxn(i)] { cluster.Submit(t); });
  }
  suite.StartPeriodic(kCheckInterval, horizon);

  RunResult result;
  result.live = w.sim.RunUntil(
      [&cluster, expect = cfg.txns] {
        return cluster.MaxCommitted() >= expect;
      },
      horizon);
  w.sim.Run(w.sim.now() + 5'000'000);  // deterministic straggler drain
  suite.RunFinal();
  result.committed = cluster.MaxCommitted();
  result.committed_min = cluster.MinCommitted();
  // Adaptive runs report the faults the adversary actually executed —
  // the replayable input to shrinking.
  if (reactive) {
    schedule = NemesisSchedule::Merged(schedule, reactive->Trace());
  }
  FillResult(&result, suite, w, std::move(schedule));
  return result;
}

// --- Sharded-system runs ---------------------------------------------------

/// One harness body serves both shard systems: they share the
/// `shard::ShardedSystem` surface, and AHL's committee is one more of its
/// `clusters()`.
template <typename System>
RunResult RunShard(const RunConfig& cfg,
                   const NemesisSchedule* explicit_schedule) {
  const sim::Time horizon = HorizonFor(cfg);
  sim::World w(MixSeed(cfg));
  FaultApplier faults;
  faults.net = &w.net;

  // Short block timer cut: 2PC lock/decision markers ride the same pools,
  // so a long cut delay would serialize every cross-shard commit.
  consensus::ClusterConfig cc = ClusterConfigFor(cfg, 2000);
  const uint32_t shards = cfg.num_shards;
  const size_t rps = cfg.cluster_size;

  std::unique_ptr<System> sut;
  if constexpr (std::is_same_v<System, shard::SharperSystem>) {
    sut = std::make_unique<System>(&w.net, &w.registry, shards, rps, cc);
  } else {
    shard::TwoPhaseConfig tp = shard::TwoPhaseConfig::Ahl(shards, rps);
    tp.cluster = cc;
    sut = std::make_unique<System>(&w.net, &w.registry, tp);
  }
  const std::vector<shard::ShardCluster*> clusters = sut->clusters();

  NemesisTopology topo;
  for (shard::ShardCluster* sc : clusters) {
    NemesisTopology::Group group;
    for (size_t i = 0; i < sc->consensus()->size(); ++i) {
      group.nodes.push_back(sc->consensus()->replica(i)->id());
      topo.all_nodes.push_back(sc->consensus()->replica(i)->id());
    }
    group.max_faulty =
        rps >= 4 ? static_cast<uint32_t>((rps - 1) / 3) : 0;
    topo.groups.push_back(std::move(group));
    topo.all_nodes.push_back(sc->gateway_id());
    topo.never_crash.push_back(sc->gateway_id());
  }
  topo.partition_whole_network = false;  // see NemesisTopology docs
  topo.supports_byzantine = false;

  // Clock skew composes with sharded runs (it is per-node, not
  // per-protocol); adaptive adversary modes do not (rejected in Dispatch).
  NemesisSchedule schedule =
      StaticSchedule(cfg, topo, horizon, explicit_schedule);

  CheckerSuite suite(&w.sim);
  // Replica agreement within each cluster (cross-cluster chains are
  // independent ledgers), linkage over every chain.
  std::vector<ChainAgreementChecker::ChainsFn> per_cluster;
  for (shard::ShardCluster* sc : clusters) {
    per_cluster.push_back([sc] { return sc->consensus()->chains(); });
  }
  auto all_chains = suite.AddChainCheckers(std::move(per_cluster));
  // Valid ids: client transactions plus the clusters' marker-id space
  // (ShardCluster::Marker sets bits >= 40).
  suite.Add(std::make_unique<CommitValidityChecker>(
      all_chains, [max_id = cfg.txns](txn::TxnId id) {
        return (id >= 1 && id <= max_id) || id >= (txn::TxnId{1} << 40);
      }));
  CrossShardAtomicityChecker* atomicity =
      suite.Add(std::make_unique<CrossShardAtomicityChecker>());

  // Workload: deposits into per-shard accounts, then a mix of intra- and
  // cross-shard transfers. Transfers conserve whether they commit or
  // abort; the expected total is whatever the committed deposits added.
  struct Progress {
    size_t submitted = 0;
    std::map<txn::TxnId, bool> results;
    int64_t deposited = 0;
  };
  auto progress = std::make_shared<Progress>();
  const size_t accounts_per_shard = 2;
  const size_t num_deposits = shards * accounts_per_shard;
  auto account = [](uint32_t shard, size_t i) {
    return "s" + std::to_string(shard) + "/acct" + std::to_string(i);
  };

  std::map<txn::TxnId, int64_t> deposit_amounts;
  sut->set_listener([progress, &deposit_amounts](txn::TxnId id, bool ok) {
    progress->results[id] = ok;
    auto it = deposit_amounts.find(id);
    if (ok && it != deposit_amounts.end()) {
      progress->deposited += it->second;
    }
  });
  sut->set_shard_outcome_listener(
      [atomicity, &w](shard::ShardId s, txn::TxnId id, bool commit) {
        atomicity->OnShardOutcome(s, id, commit, w.sim.now());
      });

  suite.Add(std::make_unique<BalanceConservationChecker>(
      [&sut] { return sut->TotalBalance(); },
      [progress] { return progress->deposited; },
      [progress, atomicity] {
        return progress->results.size() >= progress->submitted &&
               atomicity->AllDecided();
      }));

  schedule.Apply(&w.sim, &faults);
  w.net.Start();

  txn::TxnId next_id = 1;
  for (uint32_t s = 0; s < shards; ++s) {
    for (size_t i = 0; i < accounts_per_shard; ++i) {
      txn::Transaction t;
      t.id = next_id++;
      t.ops.push_back(txn::Op::Increment(account(s, i), 100));
      deposit_amounts[t.id] = 100;
      ++progress->submitted;
      w.sim.Schedule(0, [&sut, t] { sut->Submit(t); });
    }
  }
  // Transfers paced from 5 s to half the horizon; every third one crosses
  // shards. Amounts are small so most clear the guard checks.
  Rng pick(MixSeed(cfg) ^ 0x574C4F4144ULL);
  size_t num_transfers = cfg.txns > num_deposits ? cfg.txns - num_deposits : 4;
  sim::Time t0 = 5'000'000;
  sim::Time spacing = std::max<sim::Time>(
      1, (horizon / 2 - t0) / std::max<size_t>(1, num_transfers));
  for (size_t i = 0; i < num_transfers; ++i) {
    uint32_t from_shard = static_cast<uint32_t>(pick.NextU64(shards));
    uint32_t to_shard = i % 3 == 0
                            ? static_cast<uint32_t>(pick.NextU64(shards))
                            : from_shard;
    txn::Transaction t;
    t.id = next_id++;
    int64_t amount = 1 + static_cast<int64_t>(pick.NextU64(20));
    t.ops.push_back(txn::Op::Increment(
        account(from_shard, pick.NextU64(accounts_per_shard)), -amount));
    t.ops.push_back(txn::Op::Increment(
        account(to_shard, pick.NextU64(accounts_per_shard)), amount));
    auto involved = shard::ShardsOf(t, shards);
    if (involved.size() > 1) {
      atomicity->ExpectOutcomes(t.id, involved.size());
    }
    ++progress->submitted;
    w.sim.Schedule(t0 + static_cast<sim::Time>(i) * spacing,
                   [&sut, t] { sut->Submit(t); });
  }
  suite.StartPeriodic(kCheckInterval, horizon);

  RunResult result;
  result.live = w.sim.RunUntil(
      [progress, atomicity] {
        return progress->results.size() >= progress->submitted &&
               atomicity->AllDecided();
      },
      horizon);
  w.sim.Run(w.sim.now() + 30'000'000);  // deterministic straggler drain
  suite.RunFinal();
  result.committed = progress->results.size();
  FillResult(&result, suite, w, std::move(schedule));
  return result;
}

/// The protocol table: how each protocol runs and under which fault model.
struct ProtocolSpec {
  Protocol protocol;
  ProtocolFamily family;
  RunResult (*run)(const RunConfig&, const NemesisSchedule*);
};

constexpr ProtocolSpec kProtocols[] = {
    {Protocol::kPbft, ProtocolFamily::kBft, RunCluster<consensus::PbftReplica>},
    {Protocol::kRaft, ProtocolFamily::kCft, RunCluster<consensus::RaftReplica>},
    {Protocol::kHotStuff, ProtocolFamily::kBft,
     RunCluster<consensus::HotStuffReplica>},
    {Protocol::kTendermint, ProtocolFamily::kBft,
     RunCluster<consensus::TendermintReplica>},
    {Protocol::kPaxos, ProtocolFamily::kCft,
     RunCluster<consensus::PaxosReplica>},
    {Protocol::kSharper, ProtocolFamily::kSharded,
     RunShard<shard::SharperSystem>},
    {Protocol::kAhl, ProtocolFamily::kSharded,
     RunShard<shard::TwoPhaseShardSystem>},
};
static_assert(std::size(kProtocols) == std::size(NameTable<Protocol>::rows),
              "every protocol needs a row in kProtocols");

const ProtocolSpec& SpecOf(Protocol protocol) {
  return *std::find_if(std::begin(kProtocols), std::end(kProtocols),
                       [protocol](const ProtocolSpec& spec) {
                         return spec.protocol == protocol;
                       });
}

RunResult ConfigError(std::string detail) {
  RunResult bad;
  bad.violations.push_back({"config", std::move(detail), 0});
  return bad;
}

/// Rejects a zero cluster or shard count (for callers that skip the flag
/// table) and what no single field can express: settings that only work
/// together, or not for the protocol's family.
RunResult Dispatch(const RunConfig& cfg,
                   const NemesisSchedule* explicit_schedule) {
  if ((cfg.nemesis.torn_write || cfg.nemesis.lost_flush) && !cfg.durable) {
    return ConfigError("nemesis profile '" + cfg.nemesis.ToString() +
                       "' injects disk faults and requires --durable");
  }
  if (cfg.mutate_recovery && !cfg.durable) {
    return ConfigError("--mutate-recovery requires --durable");
  }
  if (cfg.cluster_size == 0) {
    return ConfigError("cluster_size must be at least 1");
  }
  if (InFamily(cfg.protocol, ProtocolFamily::kSharded)) {
    if (cfg.num_shards == 0) {
      return ConfigError("num_shards must be at least 1");
    }
    // The durable layer persists per-replica consensus chains, but sharded
    // systems commit through gateways with their own ledgers. Adaptive
    // modes split one cluster at its quorum edge, which the sharded
    // topologies forbid (NemesisTopology::partition_whole_network).
    // SweepOptions::Expand reduces such cells instead of erroring.
    if (cfg.durable) {
      return ConfigError("durable mode is not supported for sharded protocols");
    }
    if (cfg.adversary != AdversaryMode::kRandom) {
      return ConfigError("adversary mode '" +
                         std::string(NameOf(cfg.adversary)) +
                         "' is not supported for sharded protocols");
    }
  }
  return SpecOf(cfg.protocol).run(cfg, explicit_schedule);
}

}  // namespace

obs::Json RunConfig::ToJson() const {
  obs::Json j = obs::Json::Object()
                    .Set("protocol", NameOf(protocol))
                    .Set("cluster_size", static_cast<uint64_t>(cluster_size))
                    .Set("nemesis", nemesis.ToString())
                    .Set("seed", seed)
                    .Set("txns", static_cast<uint64_t>(txns))
                    .Set("horizon_us", HorizonFor(*this));
  if (InFamily(protocol, ProtocolFamily::kSharded)) {
    j.Set("num_shards", num_shards);
  }
  if (quorum_slack > 0) j.Set("quorum_slack", quorum_slack);
  if (block_max_txns > 0) {
    j.Set("block_max_txns", static_cast<uint64_t>(block_max_txns));
  }
  // Emitted only when non-default, like block_max_txns, so reports from
  // before the adaptive adversary landed stay byte-comparable.
  if (adversary != AdversaryMode::kRandom) {
    j.Set("adversary", NameOf(adversary));
  }
  if (clock_skew_ppm != 0) j.Set("clock_skew_ppm", clock_skew_ppm);
  if (durable) j.Set("durable", true);
  if (mutate_recovery) j.Set("mutate_recovery", true);
  return j;
}

RunResult RunOne(const RunConfig& config) { return Dispatch(config, nullptr); }

RunResult RunWithSchedule(const RunConfig& config,
                          const NemesisSchedule& schedule) {
  return Dispatch(config, &schedule);
}

std::vector<Protocol> KnownProtocols() {
  std::vector<Protocol> all;
  for (const Named<Protocol>& row : NameTable<Protocol>::rows) {
    all.push_back(row.value);
  }
  return all;
}

bool InFamily(Protocol protocol, ProtocolFamily family) {
  return SpecOf(protocol).family == family;
}

}  // namespace pbc::check
