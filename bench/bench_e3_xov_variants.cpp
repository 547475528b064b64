// E3 — Fabric++ "employs concurrency control techniques … to early abort
// transactions or reorder them"; FabricSharp "presents a reordering
// technique that eliminates unnecessary aborts"; XOX "re-execute[s]
// transactions that are invalidated" (§2.3.3).
//
// High-contention workload, sweep hot-key pool size (smaller pool = more
// conflict cycles). Series = abort fraction per XOV-family member.
// Expected shape: aborts(XOV) ≥ aborts(Fabric++) ≥ aborts(FabricSharp);
// XOX aborts nothing but reports re-executions.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "arch/fabricpp.h"

#include "arch/xov.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "obs/report.h"
#include "workload/workload.h"

namespace {

using namespace pbc;

constexpr uint64_t kSeed = 11;
constexpr size_t kBlockSize = 96;
constexpr int kBlocks = 10;

// Reader/writer mix over a hot-key pool: 45% readers (read a hot key,
// write a private result key — rescued by reordering), 45% blind writers
// of hot keys, 10% read-modify-writes (increment a hot key — these form
// the dependency cycles that force aborts and separate Fabric++'s
// whole-SCC policy from FabricSharp's minimal feedback set).
std::vector<txn::Transaction> MixedBlock(Rng* rng, uint64_t hot_keys,
                                         txn::TxnId* next_id, size_t n) {
  std::vector<txn::Transaction> block;
  for (size_t i = 0; i < n; ++i) {
    txn::Transaction t;
    t.id = (*next_id)++;
    std::string hot = "hot" + std::to_string(rng->NextU64(hot_keys));
    uint64_t kind = rng->NextU64(100);
    if (kind < 45) {
      t.ops.push_back(txn::Op::Read(hot));
      t.ops.push_back(txn::Op::Write("out/" + std::to_string(t.id), "r"));
    } else if (kind < 90) {
      t.ops.push_back(txn::Op::Write(hot, "w"));
    } else {
      t.ops.push_back(txn::Op::Increment(hot, 1));
    }
    block.push_back(std::move(t));
  }
  return block;
}

template <typename Arch>
void RunVariant(benchmark::State& state, const char* label) {
  uint64_t hot_keys = static_cast<uint64_t>(state.range(0));
  uint64_t committed = 0, aborted = 0, reexecuted = 0, reordered = 0;
  obs::Histogram block_latency_us;
  obs::MetricsRegistry reg;
  for (auto _ : state) {
    state.PauseTiming();
    ThreadPool pool(4);
    Arch arch(&pool);
    Rng rng(kSeed);
    txn::TxnId next_id = 1;
    std::vector<std::vector<txn::Transaction>> blocks;
    for (int b = 0; b < kBlocks; ++b) {
      blocks.push_back(MixedBlock(&rng, hot_keys, &next_id, kBlockSize));
    }
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
    reexecuted = arch.stats().reexecuted;
    reordered = arch.stats().reordered;
    reg.Clear();
    arch.ExportMetrics(&reg);
    state.ResumeTiming();
  }
  double total = static_cast<double>(kBlocks * kBlockSize);
  state.counters["abort_frac"] = static_cast<double>(aborted) / total;
  state.counters["goodput_frac"] = static_cast<double>(committed) / total;
  state.counters["reexecuted"] = static_cast<double>(reexecuted);
  state.counters["reordered"] = static_cast<double>(reordered);

  double secs = static_cast<double>(block_latency_us.sum()) / 1e6;
  obs::Json params = obs::Json::Object();
  params.Set("hot_keys", hot_keys);
  obs::Json extra = obs::Json::Object();
  extra.Set("abort_frac", static_cast<double>(aborted) / total);
  extra.Set("goodput_frac", static_cast<double>(committed) / total);
  extra.Set("reexecuted", reexecuted);
  extra.Set("reordered", reordered);
  extra.Set("block_latency_us", obs::ToJson(block_latency_us));
  obs::GlobalBenchReport().AddSeries(
      std::string(label) + "/hot_keys=" + std::to_string(hot_keys),
      std::move(params),
      obs::BenchReport::StandardMetrics(
          secs == 0 ? 0.0
                    : static_cast<double>(committed) * state.iterations() /
                          secs,
          block_latency_us, /*messages_sent=*/0, std::move(extra), &reg));
}

void BM_XOV(benchmark::State& state) {
  RunVariant<arch::XovArchitecture>(state, "XOV");
}
void BM_FabricPP(benchmark::State& state) {
  RunVariant<arch::FabricPPArchitecture>(state, "FabricPP");
}
void BM_FabricSharp(benchmark::State& state) {
  RunVariant<arch::FabricSharpArchitecture>(state, "FabricSharp");
}
void BM_XOX(benchmark::State& state) {
  RunVariant<arch::XoxArchitecture>(state, "XOX");
}

#define SWEEP Arg(2)->Arg(4)->Arg(8)->Arg(16)
BENCHMARK(BM_XOV)->SWEEP->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricPP)->SWEEP->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricSharp)->SWEEP->Unit(benchmark::kMillisecond);
BENCHMARK(BM_XOX)->SWEEP->Unit(benchmark::kMillisecond);
#undef SWEEP

}  // namespace

namespace {
pbc::obs::Json E3Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("blocks", kBlocks);
  c.Set("block_size", kBlockSize);
  c.Set("mix", "45r/45w/10rmw over hot-key pool");
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e3_xov_variants", kSeed, E3Config());
