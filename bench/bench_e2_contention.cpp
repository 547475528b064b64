// E2 — "XOV … in the presence of any contention … has to disregard the
// effects of conflicting transactions which negatively impacts the
// performance of the blockchain"; "OXII supports contentious workloads by
// detecting conflicting transactions during the order phase" (§2.3.3).
//
// Sweep hot-key probability 0 → 0.9; series = effective (committed)
// throughput and abort fraction per architecture. Expected shape: XOV's
// goodput collapses with contention, OXII/OX keep committing everything
// (OXII degrading only to serial speed), XOX pays re-execution instead of
// aborting.
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

constexpr uint64_t kSeed = 7;
constexpr size_t kBlockSize = 128;
constexpr int kBlocks = 8;

template <typename Arch>
void RunContended(benchmark::State& state, const char* label) {
  double hot = static_cast<double>(state.range(0)) / 100.0;
  uint64_t committed = 0, aborted = 0, total = 0;
  obs::Histogram block_latency_us;
  obs::MetricsRegistry reg;
  for (auto _ : state) {
    state.PauseTiming();
    ThreadPool pool(4);
    Arch arch(&pool);
    workload::ZipfianKv::Options opt;
    opt.hot_probability = hot;
    opt.hot_keys = 4;
    opt.compute_rounds = 60;
    workload::ZipfianKv gen(opt, kSeed);
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
    committed = arch.stats().committed;
    aborted = arch.stats().aborted;
    total = kBlocks * kBlockSize;
    reg.Clear();
    arch.ExportMetrics(&reg);
    state.ResumeTiming();
  }
  state.counters["committed_per_s"] = benchmark::Counter(
      static_cast<double>(committed) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["abort_frac"] =
      static_cast<double>(aborted) / static_cast<double>(total);

  double secs = static_cast<double>(block_latency_us.sum()) / 1e6;
  obs::Json params = obs::Json::Object();
  params.Set("hot_probability", hot);
  obs::Json extra = obs::Json::Object();
  extra.Set("abort_frac",
            static_cast<double>(aborted) / static_cast<double>(total));
  extra.Set("block_latency_us", obs::ToJson(block_latency_us));
  obs::GlobalBenchReport().AddSeries(
      std::string(label) + "/hot=" + std::to_string(state.range(0)),
      std::move(params),
      obs::BenchReport::StandardMetrics(
          secs == 0 ? 0.0
                    : static_cast<double>(committed) * state.iterations() /
                          secs,
          block_latency_us, /*messages_sent=*/0, std::move(extra), &reg));
}

void BM_OX(benchmark::State& state) {
  RunContended<arch::OxArchitecture>(state, "OX");
}
void BM_OXII(benchmark::State& state) {
  RunContended<arch::OxiiArchitecture>(state, "OXII");
}
void BM_XOV(benchmark::State& state) {
  RunContended<arch::XovArchitecture>(state, "XOV");
}
void BM_XOX(benchmark::State& state) {
  RunContended<arch::XoxArchitecture>(state, "XOX");
}

#define SWEEP Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(90)
BENCHMARK(BM_OX)->SWEEP->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OXII)->SWEEP->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_XOV)->SWEEP->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_XOX)->SWEEP->UseRealTime()->Unit(benchmark::kMillisecond);
#undef SWEEP

}  // namespace

namespace {
pbc::obs::Json E2Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("blocks", kBlocks);
  c.Set("block_size", kBlockSize);
  c.Set("hot_keys", 4);
  c.Set("compute_rounds", 60);
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e2_contention", kSeed, E2Config());
