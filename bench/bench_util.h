// Shared helpers for the experiment benches (E1–E12, see DESIGN.md §5).
#ifndef PBC_BENCH_BENCH_UTIL_H_
#define PBC_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "consensus/cluster.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "shard/common.h"
#include "sim/world.h"
#include "workload/workload.h"

namespace pbc::bench {

/// One chain group per cluster of a sharded system (its `clusters()`).
inline std::vector<ChainGroup> ChainsOf(
    const std::vector<shard::ShardCluster*>& clusters) {
  std::vector<ChainGroup> groups;
  for (shard::ShardCluster* sc : clusters) {
    groups.push_back(sc->consensus()->chains());
  }
  return groups;
}

/// Tracks per-transaction submit→commit latency in simulated time,
/// including a histogram for percentile reporting.
class LatencyTracker {
 public:
  explicit LatencyTracker(sim::Simulator* simulator)
      : simulator_(simulator) {}

  void Submitted(txn::TxnId id) { submit_[id] = simulator_->now(); }
  void Committed(txn::TxnId id) {
    auto it = submit_.find(id);
    if (it == submit_.end()) return;
    uint64_t delta = simulator_->now() - it->second;
    total_us_ += delta;
    ++count_;
    hist_.Record(delta);
    submit_.erase(it);
  }

  double MeanUs() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_us_) /
                             static_cast<double>(count_);
  }
  uint64_t count() const { return count_; }
  const obs::Histogram& hist() const { return hist_; }

 private:
  sim::Simulator* simulator_;
  std::map<txn::TxnId, sim::Time> submit_;
  obs::Histogram hist_;
  uint64_t total_us_ = 0;
  uint64_t count_ = 0;
};

/// Starts a sharded system's run: counts its finished txns in `*done`,
/// timing each on `tracker`, then submits `gen`'s initial deposits and
/// runs until they have all finished.
template <typename System>
void StartAndSettleDeposits(sim::World* w, System* sys,
                            workload::ShardedTransfers* gen, size_t* done,
                            LatencyTracker* tracker, sim::Time deadline) {
  sys->set_listener([done, tracker](txn::TxnId id, bool) {
    ++*done;
    tracker->Committed(id);
  });
  w->net.Start();
  size_t total = 0;
  for (auto& d : gen->InitialDeposits()) {
    sys->Submit(std::move(d));
    ++total;
  }
  w->sim.RunUntil([&] { return *done >= total; }, deadline);
}

/// Times `n` ops in a dedicated pass outside the google-benchmark loop
/// (per-op chrono reads inside the hot loop would skew ns-scale rates)
/// and emits one standard series row. The µs histogram feeds the schema's
/// latency percentiles; the ns histogram in `extra` keeps the precision
/// that sub-µs ops need.
inline void SampleAndEmit(const std::string& name, size_t n,
                          const std::function<void(size_t)>& op,
                          obs::Json extra = obs::Json::Object()) {
  obs::Histogram op_us, op_ns;
  for (size_t i = 0; i < n; ++i) {
    // detlint:allow(wall-clock) measuring real CPU cost of an op is this
    // helper's whole job; timings feed bench JSON, never committed state
    auto t0 = std::chrono::steady_clock::now();
    op(i);
    // detlint:allow(wall-clock) closes the per-op timing interval
    auto t1 = std::chrono::steady_clock::now();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    op_ns.Record(ns);
    op_us.Record(ns / 1000);
  }
  double secs = static_cast<double>(op_ns.sum()) / 1e9;
  obs::Json params = obs::Json::Object();
  params.Set("samples", n);
  extra.Set("op_latency_ns", obs::ToJson(op_ns));
  obs::GlobalBenchReport().AddSeries(
      name, std::move(params),
      obs::BenchReport::StandardMetrics(
          secs == 0 ? 0.0 : static_cast<double>(n) / secs, op_us,
          /*messages_sent=*/0, std::move(extra)));
}

}  // namespace pbc::bench

/// Replaces BENCHMARK_MAIN() for the experiment binaries: configures the
/// process-wide BenchReport, runs the registered benchmarks (which add
/// series rows via obs::GlobalBenchReport().AddSeries), then writes
/// BENCH_<bench_name>.json into the working directory. Exits 1 if any
/// cell's chain check failed (bench::CheckedRow).
#define PBC_BENCH_MAIN(bench_name, bench_seed, config_expr)               \
  int main(int argc, char** argv) {                                       \
    ::pbc::obs::GlobalBenchReport().Configure((bench_name), (bench_seed), \
                                              (config_expr));             \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    ::pbc::bench::AttachSchedulerStats();                                 \
    std::string path = ::pbc::obs::GlobalBenchReport().Write();           \
    if (!path.empty()) {                                                  \
      std::fprintf(stderr, "bench report: %s\n", path.c_str());           \
    }                                                                     \
    return ::pbc::bench::DirtyCells() == 0 ? 0 : 1;                       \
  }

#endif  // PBC_BENCH_BENCH_UTIL_H_
