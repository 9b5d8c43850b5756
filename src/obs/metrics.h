// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with label support, safe to update from any thread.
//
// Naming convention (docs/OBSERVABILITY.md): `subsystem.metric_name` with
// an explicit unit suffix where applicable (`_us`, `_seconds`, `_bytes`).
// Varying dimensions (model name, op, protocol) go in labels, never in the
// metric name.
//
// Handle acquisition (GetCounter/GetGauge/GetHistogram) takes the registry
// mutex; the returned reference stays valid for the registry's lifetime, so
// hot paths acquire once (e.g. a function-local static for fixed labels)
// and then update lock-free through atomics.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/obs/quantile.h"

namespace hybridflow {

// Label set attached to one metric instance; canonicalized (sorted by key)
// on registration so label order never creates duplicate series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

namespace obs_internal {

// Relaxed-order atomic double accumulator (CAS loop; fetch_add on
// atomic<double> is not guaranteed lock-free everywhere).
class AtomicDouble {
 public:
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
    }
  }
  void Store(double value) { value_.store(value, std::memory_order_relaxed); }
  double Load() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

}  // namespace obs_internal

// Monotonically increasing value (events, bytes, calls).
class Counter {
 public:
  void Increment(double delta = 1.0) { value_.Add(delta); }
  double Value() const { return value_.Load(); }

 private:
  obs_internal::AtomicDouble value_;
};

// Last-write-wins instantaneous value (occupancy, makespan, sizes).
class Gauge {
 public:
  void Set(double value) { value_.Store(value); }
  double Value() const { return value_.Load(); }

 private:
  obs_internal::AtomicDouble value_;
};

// Fixed-bucket histogram. `bounds` are ascending inclusive upper bounds;
// one implicit overflow bucket (+inf) catches the rest. Bucket counts are
// per-bucket (not cumulative) in the exporters.
class Histogram {
 public:
  void Observe(double value);

  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.Load(); }
  const std::vector<double>& bounds() const { return bounds_; }
  // Length bounds().size() + 1; the last entry is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;
  // Bucket-interpolated quantile estimate over a point-in-time snapshot of
  // the bucket counts (Prometheus histogram_quantile style): linear
  // interpolation inside the covering bucket, the lower edge of the first
  // bucket taken as min(0, bounds[0]), and any rank landing in the overflow
  // bucket reported as bounds().back() (the largest finite edge). Accuracy
  // is therefore bounded by bucket width — use QuantileHistogram when a
  // relative-error guarantee is needed. Returns 0 when empty.
  double SnapshotQuantile(double q) const { return BucketQuantile(bounds_, BucketCounts(), q); }

  // SnapshotQuantile over explicit `bounds` and `counts` (one more entry
  // than `bounds`: the overflow bucket), e.g. read back from a metrics dump.
  static double BucketQuantile(const std::vector<double>& bounds,
                               const std::vector<uint64_t>& counts, double q);

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  obs_internal::AtomicDouble sum_;
};

// `count` bucket bounds starting at `start`, each `factor` times the last:
// ExponentialBuckets(1, 10, 4) == {1, 10, 100, 1000}.
std::vector<double> ExponentialBuckets(double start, double factor, int count);
// `count` bucket bounds starting at `start`, each `width` apart.
std::vector<double> LinearBuckets(double start, double width, int count);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry (never destroyed; handles stay valid for the
  // process lifetime, so caching references in function-local statics is
  // safe).
  static MetricsRegistry& Global();

  // Find-or-create. Re-registering the same (name, labels) returns the
  // existing instrument; registering one name as two different kinds (or a
  // histogram with different bounds) is a programmer error and aborts.
  Counter& GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels = {});
  Histogram& GetHistogram(const std::string& name, const std::vector<double>& bounds,
                          const MetricLabels& labels = {});
  // Log-bucketed percentile histogram (src/obs/quantile.h). Re-registering
  // with a different relative error aborts, like mismatched histogram
  // bounds.
  QuantileHistogram& GetQuantileHistogram(
      const std::string& name, double relative_error = QuantileHistogram::kDefaultRelativeError,
      const MetricLabels& labels = {});

  // One JSON object per line, sorted by (name, labels) for stable output:
  //   {"name":"x.y","type":"counter","labels":{...},"value":3}
  //   {"name":"h","type":"histogram","labels":{},"count":2,"sum":11,
  //    "buckets":[{"le":1,"count":1},{"le":"+inf","count":1}]}
  std::string ToJsonLines() const;
  // Human-readable one-metric-per-line text report, same ordering.
  std::string ToText() const;
  // Writes ToJsonLines() to `path` (truncating); false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

  // Number of registered instruments.
  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kQuantile };

  struct Entry {
    std::string name;
    MetricLabels labels;  // Canonical (sorted by key).
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<QuantileHistogram> quantile;
  };

  // Creates the kind-specific instrument under mutex_ on first lookup (and
  // validates histogram bounds / quantile error there), so concurrent
  // first-time Get* calls for the same series cannot race.
  // `histogram_bounds` must be non-null iff `kind` is kHistogram;
  // `quantile_error` is read iff `kind` is kQuantile.
  Entry& FindOrCreate(const std::string& name, const MetricLabels& labels, Kind kind,
                      const std::vector<double>* histogram_bounds, double quantile_error)
      HF_EXCLUDES(mutex_);
  // Snapshots entry pointers for export; entries are append-only so the
  // pointed-to instruments remain valid after the mutex is released.
  std::vector<const Entry*> SortedEntries() const HF_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ HF_GUARDED_BY(mutex_);
  std::map<std::string, size_t> index_ HF_GUARDED_BY(mutex_);
};

}  // namespace hybridflow

#endif  // SRC_OBS_METRICS_H_
