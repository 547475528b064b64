// Metrics substrate for the whole repository: named counters, gauges and
// fixed-bucket latency histograms collected into a `MetricsRegistry`.
//
// Design constraints (see DESIGN.md §7 "Observability"):
//  * deterministic — registries are plain data keyed by std::map, so two
//    same-seed runs produce byte-identical dumps;
//  * optional — every producer takes a nullable registry pointer, and the
//    `PBC_OBS_*` macros in obs/obs.h reduce to one nullptr check when no
//    registry is attached;
//  * cheap — counters are a map lookup at attach points that already do
//    allocation-scale work (message sends, block commits).
#ifndef PBC_OBS_METRICS_H_
#define PBC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pbc::obs {

/// \brief Monotonic counter.
class Counter {
 public:
  void Add(uint64_t delta) { value_ += delta; }
  void Increment() { ++value_; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// \brief Last-value-wins gauge that also tracks its high watermark.
class Gauge {
 public:
  void Set(int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  int64_t value() const { return value_; }
  int64_t max() const { return max_; }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

/// \brief Fixed-bucket latency histogram (log-linear buckets).
///
/// Buckets subdivide each power of two into `kSubBuckets` linear steps
/// (HdrHistogram-style), giving a bounded relative error of
/// 1/kSubBuckets (12.5%) across the full uint64 range with a small,
/// fixed memory footprint. Percentiles report the upper bound of the
/// bucket containing the requested rank.
class Histogram {
 public:
  static constexpr uint32_t kSubBucketBits = 3;  // 8 sub-buckets per octave
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Value at quantile `q` in [0, 1]: the upper bound of the bucket
  /// holding the sample of rank ceil(q * count). Returns 0 when empty.
  uint64_t Quantile(double q) const;

  uint64_t P50() const { return Quantile(0.50); }
  uint64_t P95() const { return Quantile(0.95); }
  uint64_t P99() const { return Quantile(0.99); }

  /// Non-empty buckets as (upper_bound, count) pairs, ascending.
  std::vector<std::pair<uint64_t, uint64_t>> NonEmptyBuckets() const;

 private:
  static uint32_t BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(uint32_t index);

  // 64 octaves * 8 sub-buckets is an upper bound; in practice latencies
  // stay far below, and the vector grows lazily to the highest bucket.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// \brief Named metrics for one run. Lookup creates on first use.
///
/// Keys are ordered (std::map), so iteration — and therefore any dump or
/// JSON serialization — is deterministic.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  Histogram* GetHistogram(const std::string& name) {
    return &histograms_[name];
  }

  /// Read-only lookup; returns nullptr when the metric was never touched.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  uint64_t CounterValue(const std::string& name) const {
    const Counter* c = FindCounter(name);
    return c == nullptr ? 0 : c->value();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// One line per metric ("name value"), sorted by name — used by the
  /// determinism tests to compare two same-seed runs.
  std::string DebugString() const;

  void Clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pbc::obs

#endif  // PBC_OBS_METRICS_H_
