#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/common/check.h"
#include "src/obs/json_util.h"

namespace hybridflow {

namespace {

MetricLabels Canonical(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// Registry key: name and labels joined with unit separators (neither can
// contain 0x1f, which JsonEscape would reject anyway for sane names).
std::string KeyOf(const std::string& name, const MetricLabels& canonical) {
  std::string key = name;
  for (const auto& [label, value] : canonical) {
    key += '\x1f';
    key += label;
    key += '\x1e';
    key += value;
  }
  return key;
}

// A label set as a JSON object (`json`) or as the text exporter's
// {k=v,...} suffix, which is empty for no labels.
std::string FormatLabels(const MetricLabels& labels, bool json) {
  if (labels.empty()) {
    return json ? "{}" : "";
  }
  std::string out;
  for (const auto& [label, value] : labels) {
    out += out.empty() ? "{" : ",";
    out += json ? '"' + JsonEscape(label) + "\":\"" + JsonEscape(value) + '"'
                : label + '=' + value;
  }
  return out + "}";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    HF_CHECK_MSG(bounds_[i - 1] < bounds_[i], "histogram bounds must be strictly ascending");
  }
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.Add(value);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  return counts;
}

double Histogram::BucketQuantile(const std::vector<double>& bounds,
                                 const std::vector<uint64_t>& counts, double q) {
  if (bounds.empty()) {
    return 0.0;
  }
  uint64_t total = 0;
  for (uint64_t bucket_count : counts) {
    total += bucket_count;
  }
  if (total == 0) {
    return 0.0;
  }
  const double clamped_q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(std::ceil(clamped_q * static_cast<double>(total)));
  rank = std::max<uint64_t>(1, std::min(rank, total));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t below = cumulative;
    cumulative += counts[i];
    if (cumulative < rank) {
      continue;
    }
    if (i >= bounds.size()) {
      // Overflow bucket: no finite upper edge to interpolate toward.
      return bounds.back();
    }
    const double upper = bounds[i];
    const double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
    const double fraction =
        static_cast<double>(rank - below) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * fraction;
  }
  return bounds.back();
}

std::vector<double> ExponentialBuckets(double start, double factor, int count) {
  HF_CHECK_GT(start, 0.0);
  HF_CHECK_GT(factor, 1.0);
  HF_CHECK_GT(count, 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LinearBuckets(double start, double width, int count) {
  HF_CHECK_GT(width, 0.0);
  HF_CHECK_GT(count, 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    bounds.push_back(start + width * i);
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: pool threads may observe metrics during static
  // destruction (same pattern as ThreadPool::Shared).
  static MetricsRegistry* registry = new MetricsRegistry();  // hflint: allow(naked-new)
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(const std::string& name,
                                                      const MetricLabels& labels, Kind kind,
                                                      const std::vector<double>* histogram_bounds,
                                                      double quantile_error) {
  const MetricLabels canonical = Canonical(labels);
  const std::string key = KeyOf(name, canonical);
  MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& entry = *entries_[it->second];
    HF_CHECK_MSG(entry.kind == kind, "metric '" << name << "' registered as two kinds");
    if (kind == Kind::kHistogram) {
      HF_CHECK_MSG(entry.histogram->bounds() == *histogram_bounds,
                   "histogram '" << name << "' re-registered with different bounds");
    }
    if (kind == Kind::kQuantile) {
      HF_CHECK_MSG(entry.quantile->relative_error() == quantile_error,
                   "quantile '" << name << "' re-registered with different relative error");
    }
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = canonical;
  entry->kind = kind;
  // The instrument is created here, under mutex_: doing it in the Get*
  // callers after the lock is dropped would let two first-time lookups race
  // on the null-check-and-assign.
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram =
          std::unique_ptr<Histogram>(new Histogram(*histogram_bounds));  // hflint: allow(naked-new)
      break;
    case Kind::kQuantile:
      entry->quantile = std::make_unique<QuantileHistogram>(quantile_error);
      break;
  }
  index_[key] = entries_.size();
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::GetCounter(const std::string& name, const MetricLabels& labels) {
  return *FindOrCreate(name, labels, Kind::kCounter, nullptr, 0.0).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const MetricLabels& labels) {
  return *FindOrCreate(name, labels, Kind::kGauge, nullptr, 0.0).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, const std::vector<double>& bounds,
                                         const MetricLabels& labels) {
  return *FindOrCreate(name, labels, Kind::kHistogram, &bounds, 0.0).histogram;
}

QuantileHistogram& MetricsRegistry::GetQuantileHistogram(const std::string& name,
                                                         double relative_error,
                                                         const MetricLabels& labels) {
  return *FindOrCreate(name, labels, Kind::kQuantile, nullptr, relative_error).quantile;
}

size_t MetricsRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::vector<const MetricsRegistry::Entry*> MetricsRegistry::SortedEntries() const {
  std::vector<const Entry*> sorted;
  {
    MutexLock lock(mutex_);
    sorted.reserve(entries_.size());
    for (const std::unique_ptr<Entry>& entry : entries_) {
      sorted.push_back(entry.get());
    }
  }
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    if (a->name != b->name) {
      return a->name < b->name;
    }
    return a->labels < b->labels;
  });
  return sorted;
}

std::string MetricsRegistry::ToJsonLines() const {
  std::ostringstream out;
  for (const Entry* entry : SortedEntries()) {
    out << "{\"name\":\"" << JsonEscape(entry->name) << "\",";
    switch (entry->kind) {
      case Kind::kCounter:
        out << "\"type\":\"counter\",\"labels\":" << FormatLabels(entry->labels, /*json=*/true)
            << ",\"value\":" << JsonNumber(entry->counter->Value());
        break;
      case Kind::kGauge:
        out << "\"type\":\"gauge\",\"labels\":" << FormatLabels(entry->labels, /*json=*/true)
            << ",\"value\":" << JsonNumber(entry->gauge->Value());
        break;
      case Kind::kHistogram: {
        const Histogram& histogram = *entry->histogram;
        out << "\"type\":\"histogram\",\"labels\":" << FormatLabels(entry->labels, /*json=*/true)
            << ",\"count\":" << histogram.TotalCount()
            << ",\"sum\":" << JsonNumber(histogram.Sum()) << ",\"buckets\":[";
        const std::vector<uint64_t> counts = histogram.BucketCounts();
        for (size_t i = 0; i < counts.size(); ++i) {
          if (i > 0) {
            out << ",";
          }
          if (i < histogram.bounds().size()) {
            out << "{\"le\":" << JsonNumber(histogram.bounds()[i]);
          } else {
            out << "{\"le\":\"+inf\"";
          }
          out << ",\"count\":" << counts[i] << "}";
        }
        out << "]";
        break;
      }
      case Kind::kQuantile: {
        const QuantileSnapshot snapshot = entry->quantile->Snapshot();
        out << "\"type\":\"quantile\",\"labels\":" << FormatLabels(entry->labels, /*json=*/true)
            << ",\"relative_error\":" << JsonNumber(snapshot.relative_error)
            << ",\"count\":" << snapshot.count << ",\"sum\":" << JsonNumber(snapshot.sum)
            << ",\"min\":" << JsonNumber(snapshot.min) << ",\"max\":" << JsonNumber(snapshot.max)
            << ",\"p50\":" << JsonNumber(snapshot.Quantile(0.5))
            << ",\"p90\":" << JsonNumber(snapshot.Quantile(0.9))
            << ",\"p99\":" << JsonNumber(snapshot.Quantile(0.99));
        break;
      }
    }
    out << "}\n";
  }
  return out.str();
}

std::string MetricsRegistry::ToText() const {
  std::ostringstream out;
  for (const Entry* entry : SortedEntries()) {
    out << entry->name << FormatLabels(entry->labels, /*json=*/false) << " = ";
    switch (entry->kind) {
      case Kind::kCounter:
        out << JsonNumber(entry->counter->Value()) << " (counter)";
        break;
      case Kind::kGauge:
        out << JsonNumber(entry->gauge->Value()) << " (gauge)";
        break;
      case Kind::kHistogram: {
        const Histogram& histogram = *entry->histogram;
        const uint64_t count = histogram.TotalCount();
        out << "count=" << count << " sum=" << JsonNumber(histogram.Sum());
        if (count > 0) {
          out << " mean=" << JsonNumber(histogram.Sum() / static_cast<double>(count))
              << " p50=" << JsonNumber(histogram.SnapshotQuantile(0.5))
              << " p90=" << JsonNumber(histogram.SnapshotQuantile(0.9))
              << " p99=" << JsonNumber(histogram.SnapshotQuantile(0.99));
        }
        out << " (histogram)";
        break;
      }
      case Kind::kQuantile: {
        const QuantileSnapshot snapshot = entry->quantile->Snapshot();
        out << "count=" << snapshot.count << " sum=" << JsonNumber(snapshot.sum);
        if (snapshot.count > 0) {
          out << " min=" << JsonNumber(snapshot.min)
              << " p50=" << JsonNumber(snapshot.Quantile(0.5))
              << " p90=" << JsonNumber(snapshot.Quantile(0.9))
              << " p99=" << JsonNumber(snapshot.Quantile(0.99))
              << " max=" << JsonNumber(snapshot.max);
        }
        out << " (quantile e=" << JsonNumber(snapshot.relative_error) << ")";
        break;
      }
    }
    out << "\n";
  }
  return out.str();
}

bool MetricsRegistry::WriteJsonLines(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << ToJsonLines();
  return static_cast<bool>(file);
}

}  // namespace hybridflow
