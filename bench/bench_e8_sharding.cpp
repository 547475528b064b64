// E8 — "Partitioning the data into multiple shards … is a proven approach
// to enhance the scalability"; single-ledger clustering "do[es] not suffer
// from the latency of processing cross-shard transactions … However,
// exchanging messages between all clusters for every single transaction
// still results in high latency" (§1, §2.3.4).
//
// Sweep the shard/cluster count at a fixed 10% cross-shard ratio; series =
// simulated throughput for SharPer (sharded ledger) vs ResilientDB-style
// (single ledger, full replication). Expected shape: SharPer's throughput
// grows ~linearly with shards; the single-ledger design pays a global
// multicast per transaction and flattens out.
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/report.h"
#include "shard/resilientdb.h"
#include "shard/sharper.h"
#include "workload/workload.h"

namespace {

using namespace pbc;
using bench::LatencyTracker;

constexpr uint64_t kSeed = 8;
constexpr int kTxnsPerShard = 40;
constexpr sim::Time kDeadline = 600'000'000;
constexpr uint32_t kShardCounts[] = {1, 2, 4, 8};

// One SharPer cell — simulated-time metrics only, so cells fan out on
// the scheduler.
bench::SeriesRow SharperCell(uint32_t shards) {
  sim::World w(kSeed);
  w.Observe();
  shard::SharperSystem sys(&w.net, &w.registry, shards);
  LatencyTracker tracker(&w.sim);
  size_t done = 0;
  workload::ShardedTransfers gen(shards, 20, 1000, 0.1, 3);
  bench::StartAndSettleDeposits(&w, &sys, &gen, &done, &tracker, kDeadline);
  sim::Time start = w.sim.now();
  size_t base = done;
  size_t txns = kTxnsPerShard * shards;
  // Closed-loop burst: measures capacity, not arrival rate.
  for (size_t i = 0; i < txns; ++i) {
    auto t = gen.NextTransfer();
    tracker.Submitted(t.id);
    sys.Submit(std::move(t));
  }
  bool ok = w.sim.RunUntil([&] { return done >= base + txns; }, kDeadline);
  shard::ExportShardStats(sys.stats(), &w.metrics);
  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  extra.Set("abort_rate", sys.stats().AbortRate());
  extra.Set("consensus_rounds",
            w.metrics.CounterValue("shard.consensus_rounds"));
  return bench::CheckedRow(
      "SharPer/shards=" + std::to_string(shards),
      obs::Json::Object().Set("shards", shards),
      bench::PerSimSecond(ok, txns, w.sim.now() - start), tracker.hist(),
      std::move(extra), &w, bench::ChainsOf(sys.clusters()));
}

// One ResilientDB-style cell (single ledger, full replication).
bench::SeriesRow ResilientDbCell(uint32_t clusters) {
  sim::World w(kSeed);
  w.Observe();
  shard::ResilientDbSystem sys(&w.net, &w.registry, clusters);
  LatencyTracker tracker(&w.sim);
  size_t done = 0;
  sys.set_listener([&](txn::TxnId id, bool) {
    ++done;
    tracker.Committed(id);
  });
  w.net.Start();
  // Same aggregate load, spread across clusters round-robin; the ledger
  // is single, so "cross-shard" has no meaning here.
  workload::ShardedTransfers gen(clusters, 20, 1000, 0.1, 3);
  size_t txns = kTxnsPerShard * clusters;
  sim::Time start = w.sim.now();
  for (size_t i = 0; i < txns; ++i) {
    auto t = gen.NextTransfer();
    tracker.Submitted(t.id);
    sys.Submit(static_cast<uint32_t>(i % clusters), std::move(t));
  }
  bool ok = w.sim.RunUntil([&] { return done >= txns; }, kDeadline);
  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  extra.Set("executed", sys.executed());
  extra.Set("consensus_rounds",
            w.metrics.CounterValue("shard.consensus_rounds"));
  return bench::CheckedRow(
      "ResilientDB/clusters=" + std::to_string(clusters),
      obs::Json::Object().Set("clusters", clusters),
      bench::PerSimSecond(ok, txns, w.sim.now() - start), tracker.hist(),
      std::move(extra), &w, bench::ChainsOf(sys.clusters()));
}

void BM_SharPer(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (uint32_t shards : kShardCounts) {
      cases.push_back([shards] { return SharperCell(shards); });
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = static_cast<double>(std::size(kShardCounts));
}

void BM_ResilientDB(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (uint32_t clusters : kShardCounts) {
      cases.push_back([clusters] { return ResilientDbCell(clusters); });
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = static_cast<double>(std::size(kShardCounts));
}

// Each BM fans its whole shard-count sweep across the scheduler (series
// rows land in sweep order regardless of completion order).
BENCHMARK(BM_SharPer)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ResilientDB)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

namespace {
pbc::obs::Json E8Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("txns_per_shard", kTxnsPerShard);
  c.Set("cross_shard_frac", 0.1);
  c.Set("deadline_us", kDeadline);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e8_sharding", kSeed, E8Config());
