// E9 — "Centralized processing of cross-shard transactions is simpler …
// however, a large number of intra- and cross-cluster communication phases
// is needed. … the decentralized approach … processes transactions in
// less number of phases … [Saguaro] benefits from the hierarchical
// structure … the lowest common ancestor of all involved clusters is
// chosen as the coordinator resulting in lower latency" (§2.3.4).
//
// Sweep the cross-shard fraction; series = mean cross-transaction latency
// and messages/txn for AHL (reference committee), SharPer (flattened), and
// Saguaro (LCA coordinator on a WAN-like tree). Expected shape: SharPer <
// Saguaro < AHL in messages; Saguaro beats AHL on latency because nearby
// fog coordinators replace the far-away committee.
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/report.h"
#include "shard/sharper.h"
#include "shard/two_phase.h"
#include "workload/workload.h"

namespace {

using namespace pbc;
using bench::LatencyTracker;

constexpr uint64_t kSeed = 9;
constexpr uint32_t kShards = 4;
constexpr int kTxns = 80;
constexpr sim::Time kDeadline = 900'000'000;

// WAN flavor for Saguaro/AHL comparison: links between coordinator 0 (the
// AHL committee, or Saguaro's cloud root) and the shards are slow; fog
// coordinators stay local.
void SetupWan(sim::World* w, shard::TwoPhaseShardSystem* sys) {
  auto nodes = [](shard::ShardCluster* c) {
    std::vector<sim::NodeId> ids;
    for (size_t i = 0; i < c->consensus()->size(); ++i) {
      ids.push_back(c->consensus()->replica(i)->id());
    }
    ids.push_back(c->gateway_id());
    return ids;
  };
  for (sim::NodeId far : nodes(sys->coordinator(0))) {
    for (uint32_t s = 0; s < sys->num_shards(); ++s) {
      for (sim::NodeId other : nodes(sys->shard(s))) {
        // SetLinkLatency installs both directions (WAN RTTs are symmetric).
        w->net.SetLinkLatency(far, other, {5000, 500});
      }
    }
  }
}

constexpr int kCrossPercents[] = {0, 10, 30, 50, 100};

// One (system, cross-fraction) cell — simulated-time metrics only, so
// cells fan out on the scheduler.
template <typename MakeSystem>
bench::SeriesRow CrossCell(const char* label, MakeSystem make,
                           int cross_percent) {
  double cross_frac = static_cast<double>(cross_percent) / 100.0;
  sim::World w(kSeed);
  w.Observe();
  auto sys = make(&w);
  LatencyTracker tracker(&w.sim);
  size_t done = 0;
  workload::ShardedTransfers gen(kShards, 20, 1000, cross_frac, 4);
  bench::StartAndSettleDeposits(&w, sys.get(), &gen, &done, &tracker,
                                kDeadline);
  w.net.ResetStats();
  size_t base = done;
  // Open-loop arrivals every 5 ms: keeps no-wait 2PL lock conflicts from
  // dominating the latency comparison.
  for (int i = 0; i < kTxns; ++i) {
    w.sim.Schedule(
        static_cast<sim::Time>(i) * 5000,
        [&sys, &tracker, t = gen.NextTransfer()]() mutable {
          tracker.Submitted(t.id);
          sys->Submit(std::move(t));
        });
  }
  bool ok = w.sim.RunUntil([&] { return done >= base + kTxns; }, kDeadline);
  shard::ExportShardStats(sys->stats(), &w.metrics);
  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  extra.Set("msgs_per_txn",
            static_cast<double>(w.net.stats().messages_sent) / kTxns);
  extra.Set("abort_rate", sys->stats().AbortRate());
  extra.Set("consensus_rounds",
            w.metrics.CounterValue("shard.consensus_rounds"));
  return bench::CheckedRow(
      std::string(label) + "/cross=" + std::to_string(cross_percent),
      obs::Json::Object().Set("cross_frac", cross_frac).Set("shards", kShards),
      /*throughput=*/0.0, tracker.hist(), std::move(extra), &w,
      bench::ChainsOf(sys->clusters()));
}

template <typename MakeSystem>
void RunCross(benchmark::State& state, const char* label, MakeSystem make) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (int cross : kCrossPercents) {
      cases.push_back(
          [label, make, cross] { return CrossCell(label, make, cross); });
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = static_cast<double>(std::size(kCrossPercents));
}

void BM_AHL(benchmark::State& state) {
  RunCross(state, "AHL", [](sim::World* w) {
    auto sys = std::make_unique<shard::TwoPhaseShardSystem>(
        &w->net, &w->registry, shard::TwoPhaseConfig::Ahl(kShards));
    // The reference committee sits "elsewhere": slow links to it.
    SetupWan(w, sys.get());
    return sys;
  });
}

void BM_SharPer(benchmark::State& state) {
  RunCross(state, "SharPer", [](sim::World* w) {
    return std::make_unique<shard::SharperSystem>(&w->net, &w->registry,
                                                  kShards);
  });
}

void BM_Saguaro(benchmark::State& state) {
  RunCross(state, "Saguaro", [](sim::World* w) {
    auto sys = std::make_unique<shard::TwoPhaseShardSystem>(
        &w->net, &w->registry, shard::TwoPhaseConfig::Saguaro(kShards, 2));
    // Only the cloud ROOT (coordinator 0) is far; fog coordinators local.
    SetupWan(w, sys.get());
    return sys;
  });
}

// Each BM fans its whole cross-fraction sweep across the scheduler
// (series rows land in sweep order regardless of completion order).
BENCHMARK(BM_AHL)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SharPer)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Saguaro)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

namespace {
pbc::obs::Json E9Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("shards", kShards);
  c.Set("txns", kTxns);
  c.Set("deadline_us", kDeadline);
  c.Set("arrival_gap_us", 5000);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e9_cross_shard", kSeed, E9Config());
