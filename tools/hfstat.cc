// hfstat: offline analyzer for the observability artifacts this repo's
// binaries write (docs/OBSERVABILITY.md) — metrics-registry JSONL dumps,
// per-iteration telemetry JSONL, per-sequence rollout event logs, and
// BENCH_*.json reports.
//
// Usage:
//   hfstat [--top N] <artifact> [<artifact> ...]
//
// Each file's format is sniffed from its content, so any mix of artifacts
// can be passed in one invocation:
//   * metrics JSONL   ({"name":..,"type":..})   -> percentile tables for
//     quantile/histogram instruments, compact counter/gauge listing;
//   * telemetry JSONL ({"iteration":..})        -> per-iteration table and
//     means over the run;
//   * seq-events JSONL ({"kind":..,"seq":..})   -> TTFT / TPOT / queue /
//     stall percentile table, per-stage latency breakdown, and the top-N
//     slowest sequences with their event timelines;
//   * serving JSONL   ({"req":..,"outcome":..}) -> per-tenant SLO-attainment
//     table (requests / outcomes / goodput / TTFT & TPOT p99);
//   * BENCH_*.json    ({"bench":..,"rows":..})  -> row table.
//
// Exit status: 0 on success, 2 if any file is unreadable or malformed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/seq_events.h"
#include "src/serving/request.h"

namespace hybridflow {
namespace {

std::string FormatValue(double value) {
  if (value == static_cast<int64_t>(value) && std::abs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.4g", value);
}

std::string LabelSuffix(const JsonValue& record) {
  std::string out;
  if (const JsonValue* labels = record.Find("labels")) {
    for (const auto& [key, value] : labels->fields) {
      out += (out.empty() ? "{" : ",") + key + "=" + value.text;
    }
  }
  return out.empty() ? out : out + "}";
}

// Percentile of a metrics-dump fixed-bucket histogram row, by the live
// histogram's own rule.
double HistogramQuantile(const JsonValue& record, double q) {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  if (const JsonValue* buckets = record.Find("buckets")) {
    for (const JsonValue& bucket : buckets->items) {
      const JsonValue* le = bucket.Find("le");
      if (le != nullptr && le->kind == JsonValue::Kind::kNumber) {
        bounds.push_back(le->number);
      }
      counts.push_back(static_cast<uint64_t>(bucket.Num("count")));
    }
  }
  return Histogram::BucketQuantile(bounds, counts, q);
}

void PrintMetrics(const std::vector<JsonValue>& records) {
  std::cout << "\n-- distributions --\n";
  std::cout << StrFormat("%-44s | %8s | %10s | %10s | %10s | %10s\n", "metric", "count", "p50",
                         "p90", "p99", "max");
  for (const JsonValue& record : records) {
    const std::string type = record.Str("type");
    const std::string name = record.Str("name") + LabelSuffix(record);
    if (type != "quantile" && type != "histogram") {
      continue;
    }
    const bool exact = type == "quantile";  // Histograms interpolate, no max.
    const auto at = [&](const char* key, double q) {
      return FormatValue(exact ? record.Num(key) : HistogramQuantile(record, q));
    };
    std::cout << StrFormat("%-44s | %8lld | %10s | %10s | %10s | %10s\n", name.c_str(),
                           static_cast<long long>(record.Num("count")), at("p50", 0.5).c_str(),
                           at("p90", 0.9).c_str(), at("p99", 0.99).c_str(),
                           exact ? FormatValue(record.Num("max")).c_str() : "-");
  }
  std::cout << "\n-- counters / gauges --\n";
  for (const JsonValue& record : records) {
    const std::string type = record.Str("type");
    if (type == "counter" || type == "gauge") {
      std::cout << StrFormat("%-52s = %s (%s)\n",
                             (record.Str("name") + LabelSuffix(record)).c_str(),
                             FormatValue(record.Num("value")).c_str(), type.c_str());
    }
  }
}

void PrintTelemetry(const std::vector<JsonValue>& records) {
  // Union of numeric keys in insertion order across the run.
  std::vector<std::string> keys;
  for (const JsonValue& record : records) {
    for (const auto& [key, value] : record.fields) {
      if (value.kind == JsonValue::Kind::kNumber &&
          std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
  }
  std::cout << StrFormat("\n%zu iteration records; per-field mean / last:\n", records.size());
  for (const std::string& key : keys) {
    double sum = 0.0;
    size_t count = 0;
    double last = 0.0;
    for (const JsonValue& record : records) {
      const JsonValue* value = record.Find(key);
      if (value != nullptr && value->kind == JsonValue::Kind::kNumber) {
        sum += value->number;
        last = value->number;
        ++count;
      }
    }
    if (count > 0) {
      std::cout << StrFormat("  %-28s mean %-12s last %s\n", key.c_str(),
                             FormatValue(sum / static_cast<double>(count)).c_str(),
                             FormatValue(last).c_str());
    }
  }
}

void PrintDigestRow(const char* name, const LatencyDigest& digest, const char* unit) {
  std::cout << StrFormat("%-18s | %8llu | %10s | %10s | %10s | %10s | %s\n", name,
                         static_cast<unsigned long long>(digest.count),
                         FormatValue(digest.p50).c_str(), FormatValue(digest.p90).c_str(),
                         FormatValue(digest.p99).c_str(), FormatValue(digest.max).c_str(), unit);
}

void PrintSeqEvents(const std::vector<JsonValue>& records, int top_n) {
  std::vector<SeqEvent> events;
  for (const JsonValue& record : records) {
    SeqEvent event;
    if (ParseSeqEventKind(record.Str("kind"), &event.kind)) {
      event.run = static_cast<int64_t>(record.Num("run"));
      event.seq = static_cast<int64_t>(record.Num("seq"));
      event.step = static_cast<int64_t>(record.Num("step"));
      event.tokens = static_cast<int64_t>(record.Num("tokens"));
      event.sim_seconds = record.Num("sim_s");
      event.wall_us = record.Num("wall_us");
      events.push_back(event);
    }
  }
  // Sim-plane logs carry DES timestamps; data-plane logs leave them at 0
  // and are analyzed on the wall clock.
  const bool wall = std::none_of(events.begin(), events.end(),
                                 [](const SeqEvent& event) { return event.sim_seconds > 0.0; });
  const char* unit = wall ? "wall us" : "sim s";
  std::vector<SeqLatency> latencies = DeriveSeqLatencies(events, wall);
  const SeqLatencySummary summary = SummarizeSeqLatencies(latencies);

  std::cout << StrFormat("\n%zu events, %lld sequences (%lld finished), %lld preemptions, "
                         "%lld tokens recomputed [%s plane]\n",
                         events.size(), static_cast<long long>(summary.sequences),
                         static_cast<long long>(summary.finished),
                         static_cast<long long>(summary.preemptions),
                         static_cast<long long>(summary.recomputed_tokens),
                         wall ? "wall" : "sim");
  std::cout << StrFormat("%-18s | %8s | %10s | %10s | %10s | %10s |\n", "dimension", "count",
                         "p50", "p90", "p99", "max");
  PrintDigestRow("ttft", summary.ttft, unit);
  PrintDigestRow("tpot", summary.tpot, unit);
  PrintDigestRow("queue_delay", summary.queue_delay, unit);
  PrintDigestRow("preemption_stall", summary.preemption_stall, unit);

  // Per-stage breakdown of mean end-to-end latency: queue wait, prefill
  // (first admit -> first token, includes recompute), decode tail, and
  // preemption stall (which overlaps the decode/prefill stages but is
  // reported separately as lost time).
  double queue_sum = 0.0;
  double prefill_sum = 0.0;
  double decode_sum = 0.0;
  double stall_sum = 0.0;
  double total_sum = 0.0;
  size_t emitted = 0;
  for (const SeqLatency& latency : latencies) {
    if (latency.tokens < 1) {
      continue;
    }
    ++emitted;
    queue_sum += latency.queue_delay;
    prefill_sum += latency.ttft - latency.queue_delay;
    decode_sum += latency.total - latency.ttft;
    stall_sum += latency.preemption_stall;
    total_sum += latency.total;
  }
  if (emitted > 0) {
    const double n = static_cast<double>(emitted);
    std::cout << StrFormat("\nper-stage means (%s): queue %s + prefill %s + decode %s "
                           "= total %s (preemption stall %s of that)\n",
                           unit, FormatValue(queue_sum / n).c_str(),
                           FormatValue(prefill_sum / n).c_str(),
                           FormatValue(decode_sum / n).c_str(),
                           FormatValue(total_sum / n).c_str(),
                           FormatValue(stall_sum / n).c_str());
  }

  // Top-N slowest sequences, with their full event timelines.
  std::sort(latencies.begin(), latencies.end(),
            [](const SeqLatency& a, const SeqLatency& b) { return a.total > b.total; });
  const size_t show = std::min(latencies.size(), static_cast<size_t>(top_n));
  std::cout << StrFormat("\ntop %zu slowest sequences:\n", show);
  for (size_t i = 0; i < show; ++i) {
    const SeqLatency& latency = latencies[i];
    std::cout << StrFormat(
        "  run %lld seq %lld: total %s, ttft %s, %lld tokens, %lld preemptions%s\n",
        static_cast<long long>(latency.run), static_cast<long long>(latency.seq),
        FormatValue(latency.total).c_str(), FormatValue(latency.ttft).c_str(),
        static_cast<long long>(latency.tokens), static_cast<long long>(latency.preemptions),
        latency.finished ? "" : " [unfinished]");
    // Compress decode-step runs so long timelines stay readable; report
    // timestamps relative to the sequence's first event.
    int64_t decode_run = 0;
    const auto flush_decode_run = [&decode_run]() {
      if (decode_run > 0) {
        std::cout << StrFormat("    ... %lld decode steps ...\n",
                               static_cast<long long>(decode_run));
        decode_run = 0;
      }
    };
    double base = 0.0;
    bool have_base = false;
    for (const SeqEvent& event : events) {
      if (event.run != latency.run || event.seq != latency.seq) {
        continue;
      }
      const double absolute = wall ? event.wall_us : event.sim_seconds;
      if (!have_base) {
        base = absolute;
        have_base = true;
      }
      const double t = absolute - base;
      if (event.kind == SeqEventKind::kDecodeStep) {
        ++decode_run;
        continue;
      }
      flush_decode_run();
      std::cout << StrFormat("    %12s  step %-5lld %-13s tokens=%lld\n",
                             FormatValue(t).c_str(), static_cast<long long>(event.step),
                             SeqEventKindName(event.kind),
                             static_cast<long long>(event.tokens));
    }
    flush_decode_run();
  }
}

bool PrintServingRequests(const std::vector<JsonValue>& rows) {
  // Per-request serving JSONL (src/serving/request.h), folded into the
  // per-tenant SLO-attainment table by the live run's BuildServingReport.
  std::vector<RequestRecord> records(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonValue& row = rows[i];
    RequestRecord& record = records[i];
    if (!ParseRequestOutcome(row.Str("outcome"), &record.outcome)) {
      return false;
    }
    record.tenant = static_cast<int64_t>(row.Num("tenant"));
    record.tokens = static_cast<int64_t>(row.Num("tokens"));
    record.ttft = row.Num("ttft");
    record.tpot = row.Num("tpot");
    const JsonValue* slo_ok = row.Find("slo_ok");
    record.slo_ok = slo_ok != nullptr && slo_ok->kind == JsonValue::Kind::kBool && slo_ok->boolean;
  }
  const ServingReport report = BuildServingReport(records);
  std::cout << StrFormat("\n%zu serving requests across %zu tenants:\n", records.size(),
                         report.tenants.size());
  std::cout << StrFormat("%-7s | %5s | %5s | %5s | %5s | %8s | %8s | %9s | %10s | %10s |\n",
                         "tenant", "reqs", "fin", "canc", "exp", "slo_ok", "slo_rate",
                         "good_tok", "ttft_p99_s", "tpot_p99_s");
  for (const TenantServingStats& tenant : report.tenants) {
    const double rate = static_cast<double>(tenant.slo_attained) /
                        static_cast<double>(tenant.requests);
    std::cout << StrFormat(
        "%-7lld | %5lld | %5lld | %5lld | %5lld | %8lld | %8s | %9lld | %10s | %10s |\n",
        static_cast<long long>(tenant.tenant), static_cast<long long>(tenant.requests),
        static_cast<long long>(tenant.finished), static_cast<long long>(tenant.cancelled),
        static_cast<long long>(tenant.expired), static_cast<long long>(tenant.slo_attained),
        FormatValue(rate).c_str(), static_cast<long long>(tenant.goodput_tokens),
        FormatValue(tenant.ttft.p99).c_str(), FormatValue(tenant.tpot.p99).c_str());
  }
  return true;
}

void PrintBench(const JsonValue& report) {
  const JsonValue* rows = report.Find("rows");
  std::cout << StrFormat("\nbench \"%s\": %zu rows\n", report.Str("bench").c_str(),
                         rows != nullptr ? rows->items.size() : 0);
  if (rows == nullptr) {
    return;
  }
  for (const JsonValue& row : rows->items) {
    std::string line;
    for (const auto& [key, value] : row.fields) {
      line += (line.empty() ? "" : "  ") + key + "=" +
              (value.kind == JsonValue::Kind::kNumber ? FormatValue(value.number) : value.text);
    }
    std::cout << "  " << line << "\n";
  }
}

int AnalyzeFile(const std::string& path, int top_n) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "hfstat: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string content = buffer.str();

  std::cout << "==== " << path << " ====\n";

  // Whole-file JSON document (BENCH_*.json, Chrome traces)?
  JsonValue document;
  if (JsonParse(content, &document) && document.kind == JsonValue::Kind::kObject) {
    if (document.Find("bench") != nullptr) {
      PrintBench(document);
      return 0;
    }
    if (const JsonValue* trace_events = document.Find("traceEvents")) {
      std::cout << StrFormat("\nChrome trace with %zu events (open in chrome://tracing); "
                             "not analyzed further\n",
                             trace_events->items.size());
      return 0;
    }
  }

  // JSONL: parse every non-empty line.
  std::vector<JsonValue> records;
  std::istringstream lines(content);
  std::string line;
  size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    JsonValue record;
    if (!JsonParse(line, &record) || record.kind != JsonValue::Kind::kObject) {
      std::cerr << "hfstat: " << path << ":" << line_number << ": malformed JSON line\n";
      return 2;
    }
    records.push_back(std::move(record));
  }
  if (records.empty()) {
    std::cout << "(empty)\n";
    return 0;
  }

  const JsonValue& head = records.front();
  if (head.Find("kind") != nullptr && head.Find("seq") != nullptr) {
    PrintSeqEvents(records, top_n);
  } else if (head.Find("req") != nullptr && head.Find("outcome") != nullptr) {
    if (!PrintServingRequests(records)) {
      std::cerr << "hfstat: " << path << ": unknown serving outcome\n";
      return 2;
    }
  } else if (head.Find("name") != nullptr && head.Find("type") != nullptr) {
    PrintMetrics(records);
  } else if (head.Find("iteration") != nullptr) {
    PrintTelemetry(records);
  } else {
    std::cerr << "hfstat: " << path << ": unrecognized JSONL schema\n";
    return 2;
  }
  return 0;
}

int Main(int argc, char** argv) {
  int top_n = 5;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      top_n = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: hfstat [--top N] <artifact.jsonl|BENCH_*.json> ...\n";
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: hfstat [--top N] <artifact.jsonl|BENCH_*.json> ...\n";
    return 2;
  }
  int status = 0;
  for (const std::string& path : paths) {
    status = std::max(status, AnalyzeFile(path, top_n));
  }
  return status;
}

}  // namespace
}  // namespace hybridflow

int main(int argc, char** argv) { return hybridflow::Main(argc, argv); }
