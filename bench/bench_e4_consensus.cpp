// E4 — consensus protocol comparison (§2.2, §2.3.3): PBFT's all-to-all
// phases vs HotStuff's linear votes vs Raft's CFT simplicity vs
// Tendermint's per-height rounds with rotation.
//
// Sweep cluster size; series = simulated-time throughput, mean commit
// latency, and messages per committed transaction. Expected shape: PBFT
// msgs/txn grows ~n², HotStuff ~n; Raft cheapest (no signatures, leader
// fan-out); Tendermint pays a full round per height.
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "consensus/hotstuff.h"
#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "consensus/tendermint.h"
#include "obs/report.h"

namespace {

using namespace pbc;
using bench::LatencyTracker;

constexpr uint64_t kSeed = 42;
constexpr int kTxns = 200;
constexpr sim::Time kDeadline = 300'000'000;

constexpr size_t kClusterSizes[] = {4, 7, 13, 25};

// Submits `txns` KV txns at once and runs until every replica has
// committed them, timing each on replica 0. Returns whether they all did.
template <typename ReplicaT>
bool RunKvTxns(sim::World* w, consensus::Cluster<ReplicaT>* cluster,
               int txns, LatencyTracker* tracker) {
  cluster->replica(0)->set_commit_listener(
      [tracker](sim::NodeId, uint64_t, const consensus::Batch& batch) {
        for (const auto& t : batch.txns) tracker->Committed(t.id);
      });
  w->net.Start();
  for (int i = 0; i < txns; ++i) {
    auto t = consensus::MakeKvTxn(i + 1, "k" + std::to_string(i % 17), "v");
    tracker->Submitted(t.id);
    cluster->Submit(t);
  }
  return w->sim.RunUntil(
      [&] { return cluster->MinCommitted() >= static_cast<uint64_t>(txns); },
      kDeadline);
}

// One (protocol, n) cell — pure function of its parameters and kSeed
// (all metrics are simulated-time), so cells fan out on the scheduler.
template <typename ReplicaT>
bench::SeriesRow ConsensusCell(const char* label, size_t n) {
  sim::World w(kSeed);
  w.Observe();
  consensus::Cluster<ReplicaT> cluster(&w.net, &w.registry, n);
  LatencyTracker tracker(&w.sim);
  bool ok = RunKvTxns(&w, &cluster, kTxns, &tracker);
  sim::Time elapsed = w.sim.now();
  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  extra.Set("sim_elapsed_us", elapsed);
  extra.Set("msgs_per_txn",
            static_cast<double>(w.net.stats().messages_sent) / kTxns);
  extra.Set("view_changes", w.metrics.CounterValue("consensus.view_changes"));
  return bench::CheckedRow(
      std::string(label) + "/n=" + std::to_string(n),
      obs::Json::Object().Set("n", n), bench::PerSimSecond(ok, kTxns, elapsed),
      tracker.hist(), std::move(extra), &w, {cluster.chains()});
}

template <typename ReplicaT>
void RunConsensus(benchmark::State& state, const char* label) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (size_t n : kClusterSizes) {
      cases.push_back([label, n] { return ConsensusCell<ReplicaT>(label, n); });
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = static_cast<double>(std::size(kClusterSizes));
}

void BM_PBFT(benchmark::State& state) {
  RunConsensus<consensus::PbftReplica>(state, "PBFT");
}
void BM_Raft(benchmark::State& state) {
  RunConsensus<consensus::RaftReplica>(state, "Raft");
}
void BM_HotStuff(benchmark::State& state) {
  RunConsensus<consensus::HotStuffReplica>(state, "HotStuff");
}
void BM_Tendermint(benchmark::State& state) {
  RunConsensus<consensus::TendermintReplica>(state, "Tendermint");
}
void BM_Paxos(benchmark::State& state) {
  RunConsensus<consensus::PaxosReplica>(state, "Paxos");
}

// Each BM fans its whole cluster-size sweep across the scheduler (series
// rows land in sweep order regardless of completion order).
BENCHMARK(BM_PBFT)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Raft)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Paxos)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HotStuff)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Tendermint)->Iterations(1)->Unit(benchmark::kMillisecond);

// --- Block-pipeline sweep: block size × offered load ------------------------
//
// block_max=0 is the per-txn ordering baseline (inline batches capped at
// one txn): every transaction pays a full consensus round. With the
// block pipeline enabled, one round orders a 32-byte hash covering up to
// block_max txns, so simulated-time throughput should scale roughly with
// the block size until the timer cut dominates.
constexpr size_t kBlockMaxes[] = {0, 10, 50, 100, 200};
constexpr int kOfferedLoads[] = {200, 400};

template <typename ReplicaT>
bench::SeriesRow BlockPipelineCell(const char* label, size_t block_max,
                                   int offered) {
  sim::World w(kSeed);
  w.Observe();
  consensus::ClusterConfig cfg;
  if (block_max == 0) {
    cfg.batch_size = 1;  // per-txn baseline: one consensus round per txn
  } else {
    cfg.block.enabled = true;
    cfg.block.max_txns = block_max;
    cfg.block.max_delay_us = 5000;
  }
  consensus::Cluster<ReplicaT> cluster(&w.net, &w.registry, 4, cfg);
  LatencyTracker tracker(&w.sim);
  bool ok = RunKvTxns(&w, &cluster, offered, &tracker);
  sim::Time elapsed = w.sim.now();
  uint64_t chain_blocks = cluster.replica(0)->chain().height();

  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  extra.Set("sim_elapsed_us", elapsed);
  extra.Set("chain_blocks", chain_blocks);
  extra.Set("txns_per_block",
            chain_blocks == 0
                ? 0.0
                : static_cast<double>(offered) / chain_blocks);
  extra.Set("msgs_per_txn",
            static_cast<double>(w.net.stats().messages_sent) / offered);
  return bench::CheckedRow(
      std::string(label) + "/block=" + std::to_string(block_max) +
          "/offered=" + std::to_string(offered),
      obs::Json::Object()
          .Set("block_max_txns", block_max)
          .Set("offered", offered),
      bench::PerSimSecond(ok, offered, elapsed), tracker.hist(),
      std::move(extra), &w, {cluster.chains()});
}

template <typename ReplicaT>
void RunBlockPipeline(benchmark::State& state, const char* label) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (size_t block_max : kBlockMaxes) {
      for (int offered : kOfferedLoads) {
        cases.push_back([label, block_max, offered] {
          return BlockPipelineCell<ReplicaT>(label, block_max, offered);
        });
      }
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = static_cast<double>(std::size(kBlockMaxes) *
                                                std::size(kOfferedLoads));
}

void BM_PBFTBlockPipeline(benchmark::State& state) {
  RunBlockPipeline<consensus::PbftReplica>(state, "PBFT-blocks");
}
void BM_RaftBlockPipeline(benchmark::State& state) {
  RunBlockPipeline<consensus::RaftReplica>(state, "Raft-blocks");
}

BENCHMARK(BM_PBFTBlockPipeline)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RaftBlockPipeline)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

namespace {
pbc::obs::Json E4Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("txns", kTxns);
  c.Set("deadline_us", kDeadline);
  c.Set("base_latency_us", 500);
  c.Set("jitter_us", 200);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e4_consensus", kSeed, E4Config());
