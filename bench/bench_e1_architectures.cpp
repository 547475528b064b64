// E1 — "the OX architecture suffers from low performance due to the
// sequential execution of all transactions whereas both OXII and XOV
// architectures are able to execute transactions in parallel" (§2.3.3).
//
// Conflict-free workload with per-transaction contract cost; series =
// wall-clock throughput per architecture × worker-thread count. Expected
// shape: OX flat in threads; OXII/XOV/FastFabric scale with threads.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "arch/architecture.h"
#include "arch/xov.h"
#include "bench/bench_util.h"
#include "obs/report.h"
#include "workload/workload.h"

namespace {

using namespace pbc;

constexpr uint64_t kSeed = 1;
constexpr size_t kBlockSize = 128;
constexpr int kBlocks = 8;
constexpr int64_t kComputeRounds = 120;  // contract cost per transaction

workload::ZipfianKv MakeGen() {
  workload::ZipfianKv::Options opt;
  opt.hot_probability = 0.0;  // conflict-free: isolates execution cost
  opt.cold_keys = 1 << 20;
  opt.compute_rounds = kComputeRounds;
  return workload::ZipfianKv(opt, 1);
}

template <typename Arch>
void RunArch(benchmark::State& state, const char* label) {
  size_t threads = static_cast<size_t>(state.range(0));
  obs::Histogram block_latency_us;  // wall-clock per ProcessBlock
  obs::MetricsRegistry reg;
  double total_secs = 0;
  uint64_t total_txns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ThreadPool pool(threads);
    Arch arch(&pool);
    auto gen = MakeGen();
    std::vector<std::vector<txn::Transaction>> blocks;
    for (int b = 0; b < kBlocks; ++b) blocks.push_back(gen.Block(kBlockSize));
    state.ResumeTiming();
    for (const auto& block : blocks) {
      // detlint:allow(wall-clock) real-threaded pipeline bench: block
      // latency is the measurement itself, never committed state
      auto t0 = std::chrono::steady_clock::now();
      arch.ProcessBlock(block);
      // detlint:allow(wall-clock) closes the per-block timing interval
      auto t1 = std::chrono::steady_clock::now();
      block_latency_us.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()));
    }
    state.PauseTiming();
    state.counters["committed"] =
        static_cast<double>(arch.stats().committed);
    total_txns += arch.stats().committed;
    reg.Clear();
    arch.ExportMetrics(&reg);
    state.ResumeTiming();
  }
  total_secs = static_cast<double>(block_latency_us.sum()) / 1e6;
  state.counters["txn_per_s"] = benchmark::Counter(
      static_cast<double>(kBlocks * kBlockSize) * state.iterations(),
      benchmark::Counter::kIsRate);

  obs::Json params = obs::Json::Object();
  params.Set("threads", threads);
  obs::Json extra = obs::Json::Object();
  extra.Set("block_latency_us", obs::ToJson(block_latency_us));
  obs::GlobalBenchReport().AddSeries(
      std::string(label) + "/threads=" + std::to_string(threads),
      std::move(params),
      obs::BenchReport::StandardMetrics(
          total_secs == 0 ? 0.0 : static_cast<double>(total_txns) / total_secs,
          block_latency_us, /*messages_sent=*/0, std::move(extra), &reg));
}

void BM_OX(benchmark::State& state) {
  RunArch<arch::OxArchitecture>(state, "OX");
}
void BM_OXII(benchmark::State& state) {
  RunArch<arch::OxiiArchitecture>(state, "OXII");
}
void BM_XOV(benchmark::State& state) {
  RunArch<arch::XovArchitecture>(state, "XOV");
}
void BM_FastFabric(benchmark::State& state) {
  RunArch<arch::FastFabricArchitecture>(state, "FastFabric");
}

BENCHMARK(BM_OX)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OXII)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_XOV)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FastFabric)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);

// --- Block-size sweep: validation cost vs block granularity -----------------
//
// Fixed offered load carved into blocks of varying size, validated by
// FastFabric on 8 workers. Endorsement and the validation checks run as
// one flat ParallelFor per block, so every block — however conflicted —
// fans out fully; the conflict-graph levels are shape stats only and
// schedule nothing. Smaller blocks pay the per-block fan-out, serial
// gate and ledger append more often. Mild contention (10% hot keys)
// keeps the conflict graph non-trivial so the shape stats mean
// something.
void BM_FastFabricBlockSize(benchmark::State& state) {
  size_t block_size = static_cast<size_t>(state.range(0));
  constexpr size_t kSweepThreads = 8;
  constexpr size_t kSweepTxns = 2048;  // constant load across cells
  const int blocks = static_cast<int>(kSweepTxns / block_size);
  obs::Histogram block_latency_us;
  obs::MetricsRegistry reg;
  uint64_t total_txns = 0;
  ThreadPool::Stats pool_stats;
  arch::ArchStats arch_stats;
  for (auto _ : state) {
    state.PauseTiming();
    ThreadPool pool(kSweepThreads);
    arch::FastFabricArchitecture arch(&pool);
    workload::ZipfianKv::Options opt;
    opt.hot_probability = 0.1;
    opt.cold_keys = 1 << 20;
    opt.compute_rounds = kComputeRounds;
    workload::ZipfianKv gen(opt, 1);
    std::vector<std::vector<txn::Transaction>> load;
    for (int b = 0; b < blocks; ++b) load.push_back(gen.Block(block_size));
    state.ResumeTiming();
    for (const auto& block : load) {
      // detlint:allow(wall-clock) real-threaded pipeline bench: block
      // latency is the measurement itself, never committed state
      auto t0 = std::chrono::steady_clock::now();
      arch.ProcessBlock(block);
      // detlint:allow(wall-clock) closes the per-block timing interval
      auto t1 = std::chrono::steady_clock::now();
      block_latency_us.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()));
    }
    state.PauseTiming();
    total_txns += arch.stats().committed;
    arch_stats = arch.stats();
    pool_stats = pool.stats();
    reg.Clear();
    arch.ExportMetrics(&reg);
    state.ResumeTiming();
  }
  double total_secs = static_cast<double>(block_latency_us.sum()) / 1e6;
  state.counters["txn_per_s"] = benchmark::Counter(
      static_cast<double>(kSweepTxns) * state.iterations(),
      benchmark::Counter::kIsRate);

  obs::Json params = obs::Json::Object();
  params.Set("block_size", block_size);
  params.Set("threads", kSweepThreads);
  obs::Json extra = obs::Json::Object();
  extra.Set("block_latency_us", obs::ToJson(block_latency_us));
  extra.Set("blocks", blocks);
  extra.Set("txns_per_block", block_size);
  // Per-block conflict shape, averaged over the run: conflict edges per
  // block and levels per block; avg level width = txns / levels (how much
  // a level schedule could overlap — validation itself is not scheduled
  // by level).
  extra.Set("conflict_edges_per_block",
            static_cast<double>(arch_stats.dag_edges) / blocks);
  double levels_per_block =
      static_cast<double>(arch_stats.dag_levels) / blocks;
  extra.Set("levels_per_block", levels_per_block);
  extra.Set("avg_level_width",
            levels_per_block == 0
                ? 0.0
                : static_cast<double>(block_size) / levels_per_block);
  extra.Set("pool_jobs_run", pool_stats.jobs_run);
  extra.Set("pool_steals", pool_stats.steals);
  extra.Set("pool_max_queue_depth", pool_stats.max_queue_depth);
  obs::GlobalBenchReport().AddSeries(
      "FastFabric/block_size=" + std::to_string(block_size),
      std::move(params),
      obs::BenchReport::StandardMetrics(
          total_secs == 0 ? 0.0 : static_cast<double>(total_txns) / total_secs,
          block_latency_us, /*messages_sent=*/0, std::move(extra), &reg));
}

BENCHMARK(BM_FastFabricBlockSize)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

namespace {
pbc::obs::Json E1Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("blocks", kBlocks);
  c.Set("block_size", kBlockSize);
  c.Set("compute_rounds", kComputeRounds);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e1_architectures", kSeed, E1Config());
