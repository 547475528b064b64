// E6 — Caper: "each enterprise orders and executes its internal
// transactions locally while cross-enterprise transactions … require
// global agreement among all enterprises" (§2.3.1).
//
// Caper over real PBFT orderers (one 4-replica cluster per enterprise +
// one global cluster). Sweep the cross-enterprise fraction; series =
// simulated throughput and global-cluster load. Baseline: the same
// workload where EVERY transaction goes through global consensus
// (single-blockchain deployment). Expected shape: Caper's advantage
// shrinks as the cross fraction grows; at 100% the two coincide.
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "confidential/caper.h"
#include "consensus/pbft.h"
#include "obs/report.h"
#include "workload/workload.h"

namespace {

using namespace pbc;
using bench::LatencyTracker;

constexpr uint64_t kSeed = 5;
constexpr uint32_t kEnterprises = 3;
constexpr int kTxns = 150;
constexpr sim::Time kDeadline = 600'000'000;

struct CaperWorld {
  explicit CaperWorld(sim::World* w, LatencyTracker* tracker)
      : caper(kEnterprises), tracker_(tracker) {
    for (uint32_t e = 0; e < kEnterprises; ++e) {
      internal.push_back(
          std::make_unique<consensus::Cluster<consensus::PbftReplica>>(
              &w->net, &w->registry, 4, consensus::ClusterConfig{},
              100 * (e + 1)));
      caper.SetInternalOrderer(
          e, [this, e](txn::Transaction t,
                       confidential::CaperSystem::CommitFn commit) {
            pending[t.id] = commit;
            internal[e]->Submit(std::move(t));
          });
      internal[e]->replica(0)->set_commit_listener(
          [this](sim::NodeId, uint64_t, const consensus::Batch& batch) {
            Drain(batch);
          });
    }
    global = std::make_unique<consensus::Cluster<consensus::PbftReplica>>(
        &w->net, &w->registry, 4, consensus::ClusterConfig{}, 1000);
    caper.SetGlobalOrderer([this](txn::Transaction t,
                                  confidential::CaperSystem::CommitFn commit) {
      pending[t.id] = commit;
      global->Submit(std::move(t));
    });
    global->replica(0)->set_commit_listener(
        [this](sim::NodeId, uint64_t, const consensus::Batch& batch) {
          Drain(batch);
        });
  }

  void Drain(const consensus::Batch& batch) {
    for (const auto& t : batch.txns) {
      auto it = pending.find(t.id);
      if (it != pending.end()) {
        it->second(t);
        pending.erase(it);
        if (tracker_ != nullptr) tracker_->Committed(t.id);
      }
    }
  }

  confidential::CaperSystem caper;
  std::vector<std::unique_ptr<consensus::Cluster<consensus::PbftReplica>>>
      internal;
  std::unique_ptr<consensus::Cluster<consensus::PbftReplica>> global;
  std::map<txn::TxnId, confidential::CaperSystem::CommitFn> pending;
  LatencyTracker* tracker_;
};

constexpr int kCrossPercents[] = {0, 10, 30, 50, 100};

// One Caper cell — simulated-time metrics only, so cells fan out on the
// scheduler.
bench::SeriesRow CaperCell(int cross_percent) {
  double cross_frac = static_cast<double>(cross_percent) / 100.0;
  sim::World w(kSeed);
  w.Observe();
  LatencyTracker tracker(&w.sim);
  CaperWorld world(&w, &tracker);
  w.net.Start();
  workload::SupplyChain gen(kEnterprises, cross_frac, 9);
  int internal_sent = 0, cross_sent = 0;
  for (int i = 0; i < kTxns; ++i) {
    auto step = gen.Next();
    tracker.Submitted(step.txn.id);
    if (step.cross) {
      world.caper.SubmitCross(step.txn);
      ++cross_sent;
    } else {
      world.caper.SubmitInternal(step.enterprise, step.txn);
      ++internal_sent;
    }
  }
  bool ok = w.sim.RunUntil(
      [&] {
        return world.caper.internal_committed() +
                   world.caper.cross_committed() >=
               static_cast<uint64_t>(kTxns);
      },
      kDeadline);
  double global_load =
      static_cast<double>(world.global->replica(0)->committed_txns());

  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  extra.Set("internal_sent", internal_sent);
  extra.Set("cross_sent", cross_sent);
  extra.Set("global_cluster_txns", global_load);
  std::vector<bench::ChainGroup> chains = {world.global->chains()};
  for (const auto& cluster : world.internal) {
    chains.push_back(cluster->chains());
  }
  return bench::CheckedRow(
      "Caper/cross=" + std::to_string(cross_percent),
      obs::Json::Object().Set("cross_frac", cross_frac),
      bench::PerSimSecond(ok, kTxns, w.sim.now()), tracker.hist(),
      std::move(extra), &w, std::move(chains));
}

// Baseline cell: one blockchain — everything is globally ordered.
bench::SeriesRow SingleBlockchainCell(int cross_percent) {
  sim::World w(kSeed);
  w.Observe();
  consensus::Cluster<consensus::PbftReplica> global(
      &w.net, &w.registry, 4 * kEnterprises, consensus::ClusterConfig{},
      1000);
  LatencyTracker tracker(&w.sim);
  global.replica(0)->set_commit_listener(
      [&](sim::NodeId, uint64_t, const consensus::Batch& batch) {
        for (const auto& t : batch.txns) tracker.Committed(t.id);
      });
  w.net.Start();
  // The same mix, but every transaction goes to the global cluster
  // (namespace checks don't apply in the flat deployment).
  workload::SupplyChain gen(kEnterprises,
                            static_cast<double>(cross_percent) / 100.0, 9);
  for (int i = 0; i < kTxns; ++i) {
    auto t = gen.Next().txn;
    tracker.Submitted(t.id);
    global.Submit(std::move(t));
  }
  bool ok = w.sim.RunUntil(
      [&] { return global.MinCommitted() >= kTxns; }, kDeadline);
  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  return bench::CheckedRow(
      "SingleBlockchain/cross=" + std::to_string(cross_percent),
      obs::Json::Object().Set("cross_frac",
                              static_cast<double>(cross_percent) / 100.0),
      bench::PerSimSecond(ok, kTxns, w.sim.now()), tracker.hist(),
      std::move(extra), &w, {global.chains()});
}

void BM_Caper(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (int cross : kCrossPercents) {
      cases.push_back([cross] { return CaperCell(cross); });
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = static_cast<double>(std::size(kCrossPercents));
}

void BM_SingleBlockchain(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (int cross : kCrossPercents) {
      cases.push_back([cross] { return SingleBlockchainCell(cross); });
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = static_cast<double>(std::size(kCrossPercents));
}

// Each BM fans its whole cross-fraction sweep across the scheduler
// (series rows land in sweep order regardless of completion order).
BENCHMARK(BM_Caper)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleBlockchain)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

namespace {
pbc::obs::Json E6Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("enterprises", kEnterprises);
  c.Set("txns", kTxns);
  c.Set("deadline_us", kDeadline);
  c.Set("workload_seed", 9);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e6_caper", kSeed, E6Config());
