#include "bench/bench_harness.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "check/invariants.h"
#include "obs/report.h"

namespace pbc::bench {
namespace {

size_t BenchJobs() {
  // detlint:allow(env-read) PBC_BENCH_JOBS only sizes the worker pool;
  // series rows are merged in input order, so report bytes never change
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before workers start
  if (const char* env = std::getenv("PBC_BENCH_JOBS")) {
    size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return ThreadPool::DefaultParallelism();
}

std::unique_ptr<ThreadPool>& PoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::atomic<size_t> dirty_cells{0};

}  // namespace

ThreadPool& BenchPool() {
  std::unique_ptr<ThreadPool>& slot = PoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(BenchJobs());
  return *slot;
}

void FanSeries(std::vector<SeriesCase> cases) {
  std::vector<SeriesRow> rows(cases.size());
  ThreadPool& pool = BenchPool();
  TaskGroup group;
  for (size_t i = 0; i < cases.size(); ++i) {
    pool.Submit(&group, [&rows, &cases, i] { rows[i] = cases[i](); });
  }
  pool.Wait(&group);
  for (SeriesRow& row : rows) {
    obs::GlobalBenchReport().AddSeries(row.name, std::move(row.params),
                                       std::move(row.metrics));
  }
}

SeriesRow CheckedRow(std::string name, obs::Json params, double throughput,
                     const obs::Histogram& latency, obs::Json extra,
                     sim::World* w, std::vector<ChainGroup> clusters) {
  SeriesRow row{std::move(name), std::move(params),
                obs::BenchReport::StandardMetrics(
                    throughput, latency, w->net.stats().messages_sent,
                    std::move(extra), &w->metrics)};
  check::CheckerSuite suite(&w->sim);
  std::vector<check::ChainAgreementChecker::ChainsFn> groups;
  for (ChainGroup& chains : clusters) {
    groups.push_back([chains = std::move(chains)] { return chains; });
  }
  suite.AddChainCheckers(std::move(groups));
  suite.RunFinal();
  if (!suite.violations().empty()) ++dirty_cells;
  for (const check::Violation& v : suite.violations()) {
    std::fprintf(stderr, "chain check failed: %s: %s: %s\n",
                 row.name.c_str(), v.invariant.c_str(), v.detail.c_str());
  }
  return row;
}

size_t DirtyCells() { return dirty_cells.load(); }

double PerSimSecond(bool ok, double count, sim::Time elapsed_us) {
  return ok ? count / (static_cast<double>(elapsed_us) / 1e6) : 0.0;
}

void AttachSchedulerStats() {
  std::unique_ptr<ThreadPool>& slot = PoolSlot();
  if (!slot) return;
  ThreadPool::Stats stats = slot->stats();
  obs::Json j = obs::Json::Object();
  j.Set("workers", static_cast<uint64_t>(slot->num_threads()));
  j.Set("jobs_run", stats.jobs_run);
  j.Set("steals", stats.steals);
  j.Set("max_queue_depth", stats.max_queue_depth);
  obs::GlobalBenchReport().SetScheduler(std::move(j));
}

}  // namespace pbc::bench
