// E10 — "To decrease the number of required nodes within each committee,
// AHL employs trusted hardware … Using the trusted hardware, a malicious
// node cannot multicast inconsistent messages" (§2.3.4).
//
// Three series:
//  (1) committee sizing: replicas needed per committee for fault budget f,
//      with (2f+1) and without (3f+1) the attested log, and the resulting
//      node savings for a 16-shard deployment;
//  (2) the software attested-log's unit costs (attest / verify);
//  (3) end-to-end: simulated throughput of a 2-shard deployment at both
//      committee sizes — smaller committees mean fewer messages.
#include <functional>
#include <string>

#include "bench/bench_util.h"
#include "obs/report.h"
#include "shard/two_phase.h"
#include "sim/attested_log.h"
#include "workload/workload.h"

namespace {

using namespace pbc;

constexpr uint64_t kSeed = 10;

using bench::SampleAndEmit;

void BM_CommitteeSizing(benchmark::State& state) {
  uint32_t f = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f);
  }
  uint32_t without_tee = 3 * f + 1;
  uint32_t with_tee = 2 * f + 1;
  state.counters["replicas_without_tee"] = without_tee;
  state.counters["replicas_with_tee"] = with_tee;
  state.counters["nodes_saved_16_shards"] =
      16.0 * (without_tee - with_tee);

  obs::Json params = obs::Json::Object();
  params.Set("f", f);
  obs::Json extra = obs::Json::Object();
  extra.Set("replicas_without_tee", without_tee);
  extra.Set("replicas_with_tee", with_tee);
  extra.Set("nodes_saved_16_shards", 16 * (without_tee - with_tee));
  obs::GlobalBenchReport().AddSeries(
      "committee_sizing/f=" + std::to_string(f), std::move(params),
      obs::BenchReport::StandardMetrics(0.0, obs::Histogram{},
                                        /*messages_sent=*/0,
                                        std::move(extra)));
}

void BM_AttestedLogAttest(benchmark::State& state) {
  crypto::KeyRegistry registry;
  sim::AttestedLog log(1, registry.Register(1));
  uint64_t seq = 0;
  auto digest = crypto::Sha256::Digest(std::string("payload"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Attest(seq++, digest));
  }
  state.counters["attest_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);

  SampleAndEmit("attested_log_attest", 2000, [&](size_t) {
    benchmark::DoNotOptimize(log.Attest(seq++, digest));
  });
}

void BM_AttestedLogVerify(benchmark::State& state) {
  crypto::KeyRegistry registry;
  sim::AttestedLog log(1, registry.Register(1));
  auto digest = crypto::Sha256::Digest(std::string("payload"));
  auto att = log.Attest(1, digest).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::AttestedLog::Verify(registry, att));
  }
  state.counters["verify_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);

  SampleAndEmit("attested_log_verify", 2000, [&](size_t) {
    benchmark::DoNotOptimize(sim::AttestedLog::Verify(registry, att));
  });
}

// End-to-end with 4 (=3f+1) vs 3 (=2f+1, attested) replicas per cluster.
void BM_Deployment(benchmark::State& state) {
  size_t replicas = static_cast<size_t>(state.range(0));
  double throughput = 0, msgs = 0;
  for (auto _ : state) {
    sim::World w(kSeed);
    w.Observe();
    shard::TwoPhaseShardSystem sys(
        &w.net, &w.registry, shard::TwoPhaseConfig::Ahl(2, replicas));
    bench::LatencyTracker tracker(&w.sim);
    size_t done = 0;
    workload::ShardedTransfers gen(2, 20, 1000, 0.2, 4);
    bench::StartAndSettleDeposits(&w, &sys, &gen, &done, &tracker,
                                  600'000'000);
    w.net.ResetStats();
    sim::Time start = w.sim.now();
    size_t base = done;
    for (int i = 0; i < 60; ++i) {
      auto t = gen.NextTransfer();
      tracker.Submitted(t.id);
      sys.Submit(std::move(t));
    }
    bool ok = w.sim.RunUntil([&] { return done >= base + 60; }, 600'000'000);
    throughput = bench::PerSimSecond(ok, 60.0, w.sim.now() - start);
    msgs = static_cast<double>(w.net.stats().messages_sent) / 60.0;

    shard::ExportShardStats(sys.stats(), &w.metrics);
    obs::Json extra = obs::Json::Object();
    extra.Set("completed", ok);
    extra.Set("msgs_per_txn", msgs);
    extra.Set("abort_rate", sys.stats().AbortRate());
    extra.Set("consensus_rounds",
              w.metrics.CounterValue("shard.consensus_rounds"));
    bench::SeriesRow row = bench::CheckedRow(
        "deployment/replicas=" + std::to_string(replicas),
        obs::Json::Object().Set("replicas_per_cluster", replicas), throughput,
        tracker.hist(), std::move(extra), &w, bench::ChainsOf(sys.clusters()));
    obs::GlobalBenchReport().AddSeries(row.name, std::move(row.params),
                                       std::move(row.metrics));
  }
  state.counters["txn_per_simsec"] = throughput;
  state.counters["msgs_per_txn"] = msgs;
}

BENCHMARK(BM_CommitteeSizing)->Arg(1)->Arg(2)->Arg(3)->Arg(5)->Arg(8);
BENCHMARK(BM_AttestedLogAttest);
BENCHMARK(BM_AttestedLogVerify);
BENCHMARK(BM_Deployment)->Arg(4)->Arg(3)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

namespace {
pbc::obs::Json E10Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("shards", 2);
  c.Set("cross_shard_frac", 0.2);
  c.Set("burst_txns", 60);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e10_trusted_hw", kSeed, E10Config());
