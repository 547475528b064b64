// Tests for the observability layer (src/obs): histogram percentiles,
// registry determinism, trace ring buffer, JSON building, bench reports,
// and the no-op safety of the PBC_OBS_* macros.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace pbc::obs {
namespace {

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.P99(), 0u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below kSubBuckets land in unit-width buckets.
  Histogram h;
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) h.Record(v);
  EXPECT_EQ(h.count(), Histogram::kSubBuckets);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), Histogram::kSubBuckets - 1);
  EXPECT_EQ(h.P50(), 3u);  // rank 4 of 8 → value 3, exact bucket
}

TEST(HistogramTest, PercentilesOnUniformRange) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  // Log-linear buckets have <= 12.5% relative error, and Quantile reports
  // the bucket's upper bound, so p >= true value and p <= 1.125 * true.
  struct {
    double q;
    uint64_t truth;
  } cases[] = {{0.50, 500}, {0.95, 950}, {0.99, 990}};
  for (const auto& c : cases) {
    uint64_t got = h.Quantile(c.q);
    EXPECT_GE(got, c.truth) << "q=" << c.q;
    EXPECT_LE(got, static_cast<uint64_t>(1.125 * c.truth) + 1)
        << "q=" << c.q;
  }
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
}

TEST(HistogramTest, QuantileNeverExceedsObservedMax) {
  Histogram h;
  h.Record(1000);  // single sample; bucket upper bound overshoots 1000
  EXPECT_EQ(h.P50(), 1000u);
  EXPECT_EQ(h.P99(), 1000u);
}

TEST(HistogramTest, NonEmptyBucketsAscending) {
  Histogram h;
  h.Record(3);
  h.Record(100);
  h.Record(100);
  h.Record(50000);
  auto buckets = h.NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_LT(buckets[0].first, buckets[1].first);
  EXPECT_LT(buckets[1].first, buckets[2].first);
  EXPECT_EQ(buckets[0].second, 1u);
  EXPECT_EQ(buckets[1].second, 2u);
}

// --- Counters / gauges / registry ------------------------------------------

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry reg;
  reg.GetCounter("a")->Add(5);
  reg.GetCounter("a")->Increment();
  reg.GetGauge("depth")->Set(7);
  reg.GetGauge("depth")->Set(3);
  EXPECT_EQ(reg.CounterValue("a"), 6u);
  EXPECT_EQ(reg.CounterValue("never-touched"), 0u);
  EXPECT_EQ(reg.FindCounter("never-touched"), nullptr);
  EXPECT_EQ(reg.FindGauge("depth")->value(), 3);
  EXPECT_EQ(reg.FindGauge("depth")->max(), 7);
}

TEST(MetricsRegistryTest, DebugStringSortedAndStable) {
  MetricsRegistry a, b;
  // Populate in different orders; std::map keys make dumps identical.
  a.GetCounter("x")->Add(1);
  a.GetCounter("b")->Add(2);
  b.GetCounter("b")->Add(2);
  b.GetCounter("x")->Add(1);
  EXPECT_EQ(a.DebugString(), b.DebugString());
  EXPECT_NE(a.DebugString().find("counter b 2"), std::string::npos);
}

// --- TraceLog --------------------------------------------------------------

TEST(TraceLogTest, SnapshotPreservesOrder) {
  TraceLog log(16);
  for (uint64_t t = 0; t < 10; ++t) {
    log.Record(t * 100, TraceKind::kSend, 0, 1, "ping", t);
  }
  auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at_us, i * 100);
    EXPECT_EQ(events[i].arg, i);
  }
}

TEST(TraceLogTest, RingBufferKeepsNewestInOrder) {
  TraceLog log(4);
  for (uint64_t t = 0; t < 10; ++t) {
    log.Record(t, TraceKind::kSend, 0, 1, "ping", t);
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.size(), 4u);
  auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first chronological order of the retained tail: 6, 7, 8, 9.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].arg, 6 + i);
}

TEST(TraceLogTest, ZeroCapacityRecordsNothing) {
  TraceLog log(0);
  log.Record(1, TraceKind::kSend, 0, 1, "ping", 0);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLogTest, DumpContainsKindNames) {
  TraceLog log(8);
  log.Record(42, TraceKind::kDrop, 3, 4, "vote", 9);
  std::string dump = log.DumpString();
  EXPECT_NE(dump.find("drop"), std::string::npos);
  EXPECT_NE(dump.find("vote"), std::string::npos);
  EXPECT_NE(dump.find("42"), std::string::npos);
}

// --- Json ------------------------------------------------------------------

TEST(JsonTest, ObjectKeepsInsertionOrderAndOverwrites) {
  Json j = Json::Object();
  j.Set("z", 1);
  j.Set("a", 2);
  j.Set("z", 3);  // overwrite in place, order unchanged
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.object()[0].first, "z");
  EXPECT_EQ(j.object()[0].second.number(), 3);
  EXPECT_EQ(j.object()[1].first, "a");
  EXPECT_EQ(j.Dump(), "{\n  \"z\": 3,\n  \"a\": 2\n}");
}

TEST(JsonTest, EscapesStrings) {
  Json j = Json::Object();
  j.Set("k", "a\"b\\c\n");
  EXPECT_NE(j.Dump().find("a\\\"b\\\\c\\n"), std::string::npos);
}

TEST(JsonTest, NumbersIntegersStayIntegral) {
  Json j = Json::Array();
  j.Push(uint64_t{12345});
  j.Push(0.5);
  j.Push(true);
  std::string s = j.Dump();
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_EQ(s.find("12345.0"), std::string::npos);
  EXPECT_NE(s.find("0.5"), std::string::npos);
  EXPECT_NE(s.find("true"), std::string::npos);
}

// --- BenchReport -----------------------------------------------------------

TEST(BenchReportTest, StandardMetricsSchema) {
  Histogram lat;
  for (uint64_t v = 100; v <= 200; v += 10) lat.Record(v);
  Json extra = Json::Object();
  extra.Set("note", "x");
  Json m = BenchReport::StandardMetrics(123.5, lat, 42, std::move(extra));
  EXPECT_TRUE(m.Has("throughput_txn_per_s"));
  EXPECT_TRUE(m.Has("commit_latency_p50_us"));
  EXPECT_TRUE(m.Has("commit_latency_p95_us"));
  EXPECT_TRUE(m.Has("commit_latency_p99_us"));
  EXPECT_TRUE(m.Has("messages_sent"));
  EXPECT_TRUE(m.Has("note"));
  EXPECT_EQ(m.At("messages_sent").number(), 42);
}

TEST(BenchReportTest, AddSeriesOverwritesByName) {
  BenchReport report;
  report.Configure("t", 1, Json::Object());
  Json m1 = Json::Object();
  m1.Set("v", 1);
  Json m2 = Json::Object();
  m2.Set("v", 2);
  report.AddSeries("s", Json::Object(), std::move(m1));
  report.AddSeries("s", Json::Object(), std::move(m2));
  Json built = report.Build();
  ASSERT_EQ(built.At("series").size(), 1u);
  EXPECT_EQ(built.At("series").array()[0].At("metrics").At("v").number(), 2);
}

TEST(BenchReportTest, BuildCarriesBenchSeedConfig) {
  BenchReport report;
  Json cfg = Json::Object();
  cfg.Set("n", 4);
  report.Configure("mybench", 77, std::move(cfg));
  Json built = report.Build();
  EXPECT_EQ(built.At("bench").str(), "mybench");
  EXPECT_EQ(built.At("seed").number(), 77);
  EXPECT_EQ(built.At("config").At("n").number(), 4);
}

// --- PBC_OBS_* macros ------------------------------------------------------

TEST(ObsMacrosTest, NullRegistryAndTraceAreSafe) {
  MetricsRegistry* reg = nullptr;
  TraceLog* trace = nullptr;
  PBC_OBS_COUNT(reg, "x", 1);
  PBC_OBS_GAUGE_SET(reg, "g", 2);
  PBC_OBS_HIST_RECORD(reg, "h", 3);
  PBC_OBS_TRACE(trace, 0, TraceKind::kSend, 0, 1, "m", 0);
  MetricsRegistry real;
  PBC_OBS_COUNT(&real, "x", 5);
  EXPECT_EQ(real.CounterValue("x"), 5u);
}

// --- End-to-end determinism through the simulator --------------------------

struct ObsPingMsg : sim::Typed<ObsPingMsg> {
  static constexpr char kType[] = "obs-ping";
};

class SinkNode : public sim::Node {
 public:
  SinkNode(sim::NodeId id, sim::Network* net) : Node(id, net) {}
  void OnMessage(sim::NodeId, const sim::MessagePtr&) override { ++got; }
  int got = 0;
};

// Runs a small lossy, jittery simulation with metrics + trace attached and
// returns (registry dump, trace dump). Two same-seed runs must match
// byte-for-byte; a different seed must diverge.
std::pair<std::string, std::string> RunInstrumented(uint64_t seed) {
  sim::World w(seed);
  w.Observe();
  w.net.SetDefaultLatency({100, 80});
  w.net.SetDropRate(0.2);
  SinkNode a(0, &w.net), b(1, &w.net), c(2, &w.net);
  w.net.Start();
  for (int i = 0; i < 100; ++i) {
    w.net.Send(0, 1, std::make_shared<ObsPingMsg>());
    w.net.Send(1, 2, std::make_shared<ObsPingMsg>());
  }
  w.sim.Schedule(50, [&] { w.net.Crash(2); });
  w.sim.Schedule(5000, [&] { w.net.Recover(2); });
  w.sim.RunAll();
  return {w.metrics.DebugString(), w.trace.DumpString()};
}

TEST(ObsDeterminismTest, SameSeedSameMetricsAndTrace) {
  auto r1 = RunInstrumented(1234);
  auto r2 = RunInstrumented(1234);
  EXPECT_EQ(r1.first, r2.first);
  EXPECT_EQ(r1.second, r2.second);
  EXPECT_FALSE(r1.first.empty());
}

TEST(ObsDeterminismTest, DifferentSeedDiverges) {
  auto r1 = RunInstrumented(1);
  auto r2 = RunInstrumented(2);
  // Jitter + drops depend on the seed, so the dumps should differ.
  EXPECT_NE(r1.first + r1.second, r2.first + r2.second);
}

TEST(ObsNetworkTest, TraceTimestampsNonDecreasing) {
  sim::World w(7);
  w.Observe();
  w.net.SetDefaultLatency({100, 50});
  SinkNode a(0, &w.net), b(1, &w.net);
  w.net.Start();
  for (int i = 0; i < 20; ++i) w.net.Send(0, 1, std::make_shared<ObsPingMsg>());
  w.sim.RunAll();
  auto events = w.trace.Snapshot();
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at_us, events[i - 1].at_us);
  }
  // Sends precede deliveries of the same pair count.
  size_t sends = 0, delivers = 0;
  for (const auto& ev : events) {
    if (ev.kind == TraceKind::kSend) ++sends;
    if (ev.kind == TraceKind::kDeliver) ++delivers;
  }
  EXPECT_EQ(sends, 20u);
  EXPECT_EQ(delivers, 20u);
}

TEST(ObsNetworkTest, PerTypeAndPerLinkCounters) {
  sim::World w(3);
  w.Observe();
  SinkNode a(0, &w.net), b(1, &w.net);
  w.net.Start();
  for (int i = 0; i < 5; ++i) w.net.Send(0, 1, std::make_shared<ObsPingMsg>());
  w.sim.RunAll();
  EXPECT_EQ(w.metrics.CounterValue("net.sent"), 5u);
  EXPECT_EQ(w.metrics.CounterValue("net.sent.obs-ping"), 5u);
  EXPECT_EQ(w.metrics.CounterValue("net.link.0->1.sent"), 5u);
  EXPECT_EQ(w.metrics.CounterValue("net.delivered"), 5u);
}

}  // namespace
}  // namespace pbc::obs
