// E12 — fault tolerance (§2.2): BFT protocols keep committing with f
// Byzantine/crashed replicas; leader failure costs a view change.
//
// Series per protocol: throughput with no faults, with a crashed follower,
// with a crashed leader (measures view-change recovery), and with a
// silent Byzantine replica. Safety under these faults is asserted by the
// property tests; this bench quantifies the performance cost.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "consensus/hotstuff.h"
#include "consensus/pbft.h"
#include "consensus/tendermint.h"
#include "obs/report.h"

namespace {

using namespace pbc;
using bench::LatencyTracker;

constexpr uint64_t kSeed = 12;
constexpr int kTxns = 150;
constexpr sim::Time kDeadline = 600'000'000;

enum class Fault { kNone = 0, kCrashFollower, kCrashLeader, kSilentByz };

const char* FaultName(Fault fault) {
  switch (fault) {
    case Fault::kNone:
      return "none";
    case Fault::kCrashFollower:
      return "crash_follower";
    case Fault::kCrashLeader:
      return "crash_leader";
    case Fault::kSilentByz:
      return "silent_byz";
  }
  return "unknown";
}

// One (protocol, fault) cell — simulated-time metrics only, so cells fan
// out on the scheduler.
template <typename ReplicaT>
bench::SeriesRow FaultedCell(const char* label, Fault fault) {
  sim::World w(kSeed);
  w.Observe();
  consensus::Cluster<ReplicaT> cluster(&w.net, &w.registry, 4);
  LatencyTracker tracker(&w.sim);
  // Replica 1 is healthy under every fault below; use it to observe
  // commits for the latency histogram.
  cluster.replica(1)->set_commit_listener(
      [&](sim::NodeId, uint64_t, const consensus::Batch& batch) {
        for (const auto& t : batch.txns) tracker.Committed(t.id);
      });
  std::vector<size_t> skip;
  switch (fault) {
    case Fault::kNone:
      break;
    case Fault::kCrashFollower:
      w.net.Crash(3);
      skip = {3};
      break;
    case Fault::kCrashLeader:
      // Crash the node leading at start for each protocol family:
      // node 0 leads PBFT view 0; HotStuff view 1 is led by node 1;
      // crash both effects by killing node 0 after a short run-in —
      // protocols that don't lead with 0 treat it as a follower crash.
      skip = {0};
      break;
    case Fault::kSilentByz:
      cluster.replica(2)->set_byzantine_mode(
          consensus::ByzantineMode::kSilent);
      skip = {2};
      break;
  }
  w.net.Start();
  for (int i = 0; i < kTxns; ++i) {
    auto t = consensus::MakeKvTxn(i + 1, "k" + std::to_string(i % 13), "v");
    tracker.Submitted(t.id);
    cluster.Submit(t);
  }
  if (fault == Fault::kCrashLeader) {
    w.sim.Schedule(500, [&w] { w.net.Crash(0); });
  }
  bool ok = w.sim.RunUntil(
      [&] { return cluster.MinCommitted(skip) >= kTxns; }, kDeadline);
  sim::Time elapsed = w.sim.now();
  obs::Json extra = obs::Json::Object();
  extra.Set("completed", ok);
  extra.Set("sim_elapsed_us", elapsed);
  extra.Set("view_changes",
            static_cast<double>(
                w.metrics.CounterValue("consensus.view_changes")));
  extra.Set("msgs_dropped", w.net.stats().messages_dropped);
  return bench::CheckedRow(
      std::string(label) + "/fault=" + FaultName(fault),
      obs::Json::Object().Set("fault", FaultName(fault)).Set("n", 4),
      bench::PerSimSecond(ok, kTxns, elapsed), tracker.hist(),
      std::move(extra), &w, {cluster.chains()});
}

template <typename ReplicaT>
void RunFaulted(benchmark::State& state, const char* label) {
  for (auto _ : state) {
    std::vector<bench::SeriesCase> cases;
    for (int f = 0; f <= static_cast<int>(Fault::kSilentByz); ++f) {
      Fault fault = static_cast<Fault>(f);
      cases.push_back(
          [label, fault] { return FaultedCell<ReplicaT>(label, fault); });
    }
    bench::FanSeries(std::move(cases));
  }
  state.counters["cells"] = 4;
}

void BM_PBFT(benchmark::State& state) {
  RunFaulted<consensus::PbftReplica>(state, "PBFT");
}
void BM_HotStuff(benchmark::State& state) {
  RunFaulted<consensus::HotStuffReplica>(state, "HotStuff");
}
void BM_Tendermint(benchmark::State& state) {
  RunFaulted<consensus::TendermintReplica>(state, "Tendermint");
}

// Each BM fans its whole fault sweep across the scheduler (series rows
// land in sweep order regardless of completion order).
BENCHMARK(BM_PBFT)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HotStuff)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Tendermint)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

namespace {
pbc::obs::Json E12Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("txns", kTxns);
  c.Set("n", 4);
  c.Set("deadline_us", kDeadline);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e12_faults", kSeed, E12Config());
