// Fan-out harness for the *simulated-time* benches: cases whose metrics
// are measured in simulated microseconds (e4 consensus, e6 caper, e8
// sharding, e9 cross-shard, e12 faults) are pure functions of their
// parameters and the fixed seed, so they can run concurrently on the
// work-stealing scheduler without changing a single reported number —
// only the wall-clock time to produce them.
//
// The *wall-clock* benches (e1/e2/e3/e5/e7/e10/e11) must NOT fan out:
// their metrics are real elapsed-time rates, and concurrent cases would
// contend for cores and skew each other's timings. They keep running
// serially through plain google-benchmark.
//
// Every simulated cell (E10's deployment rows too) ends in CheckedRow,
// so no e-bench number comes from a run whose replica chains disagree.
#ifndef PBC_BENCH_BENCH_HARNESS_H_
#define PBC_BENCH_BENCH_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "ledger/chain.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/world.h"

namespace pbc::bench {

/// One series row, computed off-thread. FanSeries adds rows to the
/// global report on the calling thread, in input order.
struct SeriesRow {
  std::string name;
  obs::Json params;
  obs::Json metrics;
};

using SeriesCase = std::function<SeriesRow()>;

/// The scheduler shared by every fanning bench in the process. Sized by
/// the PBC_BENCH_JOBS env var (1 = serial); default hardware
/// concurrency. Created lazily — purely serial benches never pay for it.
ThreadPool& BenchPool();

/// Runs the cases on BenchPool(), then adds the resulting rows to
/// obs::GlobalBenchReport() in input order on the calling thread: the
/// report is not thread-safe, and input order keeps the series array
/// identical however many workers ran the cases.
void FanSeries(std::vector<SeriesCase> cases);

/// The replica chains of one consensus cluster (`Cluster::chains()`).
using ChainGroup = std::vector<const ledger::Chain*>;

/// Ends every simulated cell: builds its row from `w`'s standard metrics
/// (messages sent, the registry), then runs one check::CheckerSuite over
/// `clusters`, chain agreement within each and chain linkage over all.
/// Final pass only: a periodic check would schedule events and move the
/// pinned `sim.events`. A violation is printed on stderr with the row's
/// name, and PBC_BENCH_MAIN then exits 1. Thread-safe: fanned cells call
/// it.
SeriesRow CheckedRow(std::string name, obs::Json params, double throughput,
                     const obs::Histogram& latency, obs::Json extra,
                     sim::World* w, std::vector<ChainGroup> clusters);

/// Cells whose chain check found a violation so far.
size_t DirtyCells();

/// `count` per simulated second of `elapsed_us`, or 0 if the run did not
/// finish (`ok` false).
double PerSimSecond(bool ok, double count, sim::Time elapsed_us);

/// Attaches BenchPool()'s counters to the global report (top-level
/// "scheduler" object). No-op when nothing was fanned, so serial
/// benches' reports are unchanged. Called by PBC_BENCH_MAIN.
void AttachSchedulerStats();

}  // namespace pbc::bench

#endif  // PBC_BENCH_BENCH_HARNESS_H_
