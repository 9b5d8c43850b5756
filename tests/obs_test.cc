// Tests for the src/obs/ observability subsystem: metrics registry
// (including concurrent updates — run under TSan by tools/check.sh),
// wall-clock tracing, JSON utilities, telemetry sinks, and the single- and
// dual-plane Chrome trace exporters.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/obs/dual_trace.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/sim/timeline.h"
#include "src/sim/trace_export.h"
#include "src/sim/topology.h"

namespace hybridflow {
namespace {

// ---------------------------------------------------------------------------
// JSON utilities
// ---------------------------------------------------------------------------

TEST(ObsJsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(JsonEscape("a\b\f"), "a\\b\\f");
}

TEST(ObsJsonTest, NumbersSerializeWithoutNoise) {
  EXPECT_EQ(JsonNumber(3.0), "3");
  EXPECT_EQ(JsonNumber(-17.0), "-17");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  // Non-finite values are not representable in JSON.
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(ObsJsonTest, ValidatorAcceptsWellFormedDocuments) {
  EXPECT_TRUE(JsonValidate("{}"));
  EXPECT_TRUE(JsonValidate("[]"));
  EXPECT_TRUE(JsonValidate("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null},\"d\":\"x\\n\"}"));
  EXPECT_TRUE(JsonValidate("  [true, false, null]  "));
}

TEST(ObsJsonTest, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(JsonValidate("{", &error));
  EXPECT_FALSE(JsonValidate("{\"a\":}", &error));
  EXPECT_FALSE(JsonValidate("[1,]", &error));
  EXPECT_FALSE(JsonValidate("[1] trailing", &error));
  EXPECT_FALSE(JsonValidate("{\"a\":1,}", &error));
  // Raw control characters are illegal inside JSON strings.
  EXPECT_FALSE(JsonValidate(std::string("\"a\nb\""), &error));
  EXPECT_FALSE(error.empty());
}

TEST(ObsJsonTest, ParserBuildsTheDocumentTree) {
  JsonValue doc;
  ASSERT_TRUE(JsonParse(
      " {\"a\":[1,-2.5e1,true,null],\"s\":\"x\\n\\u0041\\u00e9\\/\",\"a\":{}} ", &doc));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc.fields.size(), 3u);  // Document order; duplicate keys kept.
  const JsonValue* a = doc.Find("a");  // The first "a".
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(a->items.size(), 4u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, -25.0);
  EXPECT_TRUE(a->items[2].boolean);
  EXPECT_EQ(a->items[3].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.Str("s"), "x\nA\xc3\xa9/");
  EXPECT_EQ(doc.Num("s", 7.0), 7.0);  // Not a number: the fallback.
  EXPECT_EQ(doc.Find("missing"), nullptr);

  std::string error;
  EXPECT_FALSE(JsonParse("[01]", &doc, &error));  // No leading zeros.
  EXPECT_FALSE(JsonParse("[1.]", &doc, &error));
  EXPECT_FALSE(JsonParse("\"\\x\"", &doc, &error));
  EXPECT_FALSE(JsonParse("\"\\u12\"", &doc, &error));
  EXPECT_NE(error.find("(at byte "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, CountersGaugesAndHistogramsRecordValues) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test.events");
  counter.Increment();
  counter.Increment(2.5);
  EXPECT_DOUBLE_EQ(counter.Value(), 3.5);

  Gauge& gauge = registry.GetGauge("test.occupancy");
  gauge.Set(17.0);
  gauge.Set(4.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 4.0);

  Histogram& histogram = registry.GetHistogram("test.latency_us", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket le=1
  histogram.Observe(5.0);    // bucket le=10
  histogram.Observe(5000.0); // overflow bucket
  EXPECT_EQ(histogram.TotalCount(), 3u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 5005.5);
  const std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(ObsMetricsTest, LabelsCreateDistinctSeriesAndOrderIsCanonical) {
  MetricsRegistry registry;
  Counter& ab = registry.GetCounter("test.ops", {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.GetCounter("test.ops", {{"b", "2"}, {"a", "1"}});
  Counter& other = registry.GetCounter("test.ops", {{"a", "1"}, {"b", "3"}});
  EXPECT_EQ(&ab, &ba);  // Label order never splits a series.
  EXPECT_NE(&ab, &other);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ObsMetricsTest, BucketHelpersProduceAscendingBounds) {
  EXPECT_EQ(ExponentialBuckets(1.0, 10.0, 4), (std::vector<double>{1.0, 10.0, 100.0, 1000.0}));
  EXPECT_EQ(LinearBuckets(0.0, 2.5, 3), (std::vector<double>{0.0, 2.5, 5.0}));
}

TEST(ObsMetricsTest, ConcurrentUpdatesAreExact) {
  // TSan-relevant: many threads hammer one counter and one histogram
  // through the registry; final counts must be exact.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&registry](int) {
    Counter& counter = registry.GetCounter("test.concurrent", {{"kind", "counter"}});
    Histogram& histogram =
        registry.GetHistogram("test.concurrent_us", {1.0, 100.0}, {{"kind", "histogram"}});
    Gauge& gauge = registry.GetGauge("test.concurrent_gauge");
    for (int i = 0; i < kPerThread; ++i) {
      counter.Increment();
      histogram.Observe(static_cast<double>(i % 200));
      gauge.Set(static_cast<double>(i));
    }
  });
  EXPECT_DOUBLE_EQ(registry.GetCounter("test.concurrent", {{"kind", "counter"}}).Value(),
                   static_cast<double>(kThreads * kPerThread));
  Histogram& histogram =
      registry.GetHistogram("test.concurrent_us", {1.0, 100.0}, {{"kind", "histogram"}});
  EXPECT_EQ(histogram.TotalCount(), static_cast<uint64_t>(kThreads * kPerThread));
  const std::vector<uint64_t> counts = histogram.BucketCounts();
  EXPECT_EQ(counts[0] + counts[1] + counts[2], static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(ObsMetricsTest, JsonLinesExportIsStableAndValid) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter", {{"model", "actor"}}).Increment(2);
  registry.GetGauge("a.gauge").Set(1.5);
  registry.GetHistogram("c.hist", {1.0, 10.0}).Observe(3.0);
  const std::string jsonl = registry.ToJsonLines();
  const std::string expected =
      "{\"name\":\"a.gauge\",\"type\":\"gauge\",\"labels\":{},\"value\":1.5}\n"
      "{\"name\":\"b.counter\",\"type\":\"counter\",\"labels\":{\"model\":\"actor\"},"
      "\"value\":2}\n"
      "{\"name\":\"c.hist\",\"type\":\"histogram\",\"labels\":{},\"count\":1,\"sum\":3,"
      "\"buckets\":[{\"le\":1,\"count\":0},{\"le\":10,\"count\":1},"
      "{\"le\":\"+inf\",\"count\":0}]}\n";
  EXPECT_EQ(jsonl, expected);
  // Every line must parse as standalone JSON.
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    std::string error;
    EXPECT_TRUE(JsonValidate(line, &error)) << line << ": " << error;
  }
}

TEST(ObsMetricsTest, TextExportIsHumanReadable) {
  MetricsRegistry registry;
  registry.GetCounter("x.count", {{"op", "gen"}}).Increment(4);
  registry.GetHistogram("y.hist", {10.0}).Observe(4.0);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("x.count{op=gen} = 4 (counter)"), std::string::npos);
  // p50/p90/p99 come from SnapshotQuantile's bucket interpolation: the one
  // observation fills the [0, 10] bucket, whose upper edge every rank hits.
  EXPECT_NE(text.find("y.hist = count=1 sum=4 mean=4 p50=10 p90=10 p99=10 (histogram)"),
            std::string::npos);
}

TEST(ObsMetricsTest, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// ---------------------------------------------------------------------------
// Wall-clock tracing
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  WallclockTracer& tracer = WallclockTracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();
  { HF_TRACE_SCOPE("ignored", "test"); }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ObsTraceTest, EnabledTracerRecordsScopedSpans) {
  WallclockTracer& tracer = WallclockTracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    HF_TRACE_SCOPE("outer", "test");
    { HF_TRACE_SCOPE("inner", "test"); }
  }
  tracer.SetEnabled(false);
  const std::vector<WallSpan> spans = tracer.Snapshot();
  tracer.Clear();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].category, "test");
  EXPECT_GE(spans[0].duration_us, 0.0);
  EXPECT_GE(spans[1].duration_us, spans[0].duration_us);
  EXPECT_LE(spans[1].start_us, spans[0].start_us);
}

TEST(ObsTraceTest, MinDurationThresholdDropsShortSpans) {
  WallclockTracer& tracer = WallclockTracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  tracer.SetMinDurationUs(1e6);  // Nothing in this test runs for a second.
  { HF_TRACE_SCOPE("short", "test"); }
  tracer.Record(WallSpan{"long", "test", 0, 0.0, 2e6});
  tracer.SetMinDurationUs(0.0);
  tracer.SetEnabled(false);
  const std::vector<WallSpan> spans = tracer.Snapshot();
  tracer.Clear();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "long");
}

TEST(ObsTraceTest, CategorySamplingKeepsOneInEvery) {
  WallclockTracer& tracer = WallclockTracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  tracer.SetCategorySampling("tensor", 4);
  for (int i = 0; i < 8; ++i) {
    tracer.Record(WallSpan{"gemm", "tensor", 0, static_cast<double>(i), 1.0});
  }
  tracer.Record(WallSpan{"dispatch", "controller", 0, 100.0, 1.0});
  tracer.SetCategorySampling("", 1);
  tracer.SetEnabled(false);
  const std::vector<WallSpan> spans = tracer.Snapshot();
  tracer.Clear();
  // 8 tensor spans decimated 4:1 -> 2 kept; the other category is intact.
  int tensor_spans = 0;
  int other_spans = 0;
  for (const WallSpan& span : spans) {
    if (span.category == "tensor") {
      ++tensor_spans;
    } else {
      ++other_spans;
    }
  }
  EXPECT_EQ(tensor_spans, 2);
  EXPECT_EQ(other_spans, 1);
}

TEST(ObsTraceTest, ConcurrentRecordingIsSafeAndComplete) {
  WallclockTracer& tracer = WallclockTracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  constexpr int kTasks = 64;
  ThreadPool pool(4);
  pool.ParallelFor(kTasks, [](int) { HF_TRACE_SCOPE("task", "test"); });
  tracer.SetEnabled(false);
  // The pool's own threadpool.task spans are also recorded; count only ours.
  const std::vector<WallSpan> spans = tracer.Snapshot();
  tracer.Clear();
  int ours = 0;
  for (const WallSpan& span : spans) {
    if (span.name == "task") ++ours;
  }
  EXPECT_EQ(ours, kTasks);
}

// ---------------------------------------------------------------------------
// Sim-trace exporter (regression tests for the leading-comma bug and the
// queue_delay_us annotation)
// ---------------------------------------------------------------------------

TEST(ObsTraceExportTest, EmptyWorldWithSpansEmitsValidJson) {
  // Regression: with zero device-metadata lines the exporter used to emit a
  // leading comma before the first span, producing invalid JSON.
  TraceSpan span;
  span.name = "op";
  span.category = "infer";
  span.devices = {0};
  span.ready = 0.0;
  span.start = 1.0;
  span.end = 2.0;
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  AppendSimTraceEvents({span}, /*world_size=*/0, /*pid=*/0, &first, out);
  out << "\n]}\n";
  std::string error;
  EXPECT_TRUE(JsonValidate(out.str(), &error)) << out.str() << ": " << error;
}

TEST(ObsTraceExportTest, SpansCarryQueueDelayMicros) {
  TraceSpan span;
  span.name = "op";
  span.category = "train";
  span.devices = {0};
  span.ready = 1.0;
  span.start = 3.5;  // 2.5 s of queue wait -> 2.5e6 us.
  span.end = 4.0;
  std::ostringstream out;
  bool first = true;
  AppendSimTraceEvents({span}, /*world_size=*/1, /*pid=*/0, &first, out);
  EXPECT_NE(out.str().find("\"queue_delay_us\":2500000.000"), std::string::npos) << out.str();
}

TEST(ObsTraceExportTest, ClusterTraceRoundTripsThroughValidator) {
  ClusterState state(ClusterSpec::WithGpus(2));
  state.ScheduleOp("a.gen", "generate", {0, 1}, 0.0, 1.0);
  state.ScheduleOp("a.train", "train", {0}, 1.0, 0.5);
  const std::string json = TraceToChromeJson(state);
  std::string error;
  EXPECT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"name\":\"a.gen\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dual-plane merged trace
// ---------------------------------------------------------------------------

TEST(ObsDualTraceTest, MergedTraceIsValidJsonWithBothProcessGroups) {
  ClusterState state(ClusterSpec::WithGpus(2));
  state.ScheduleOp("actor.generate", "generate", {0, 1}, 0.0, 2.0);
  std::vector<WallSpan> wall;
  wall.push_back(WallSpan{"dispatch", "controller", 0, 10.0, 5.0});
  wall.push_back(WallSpan{"task \"quoted\"", "threadpool", 1, 12.0, 1.0});
  const std::string json = DualPlaneChromeJson(state, wall);
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << json << ": " << error;
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("simulated cluster (sim-time)"), std::string::npos);
  EXPECT_NE(json.find("framework (wall-clock)"), std::string::npos);
  EXPECT_NE(json.find("task \\\"quoted\\\""), std::string::npos);
}

TEST(ObsDualTraceTest, EmptyWallPlaneStillProducesValidJson) {
  ClusterState state(ClusterSpec::WithGpus(1));
  const std::string json = DualPlaneChromeJson(state, {});
  std::string error;
  EXPECT_TRUE(JsonValidate(json, &error)) << error;
}

// ---------------------------------------------------------------------------
// Telemetry sinks
// ---------------------------------------------------------------------------

TEST(ObsTelemetryTest, FieldsSerializePreservingInsertionOrder) {
  TelemetryFields record;
  record.Number("iteration", 3).Text("algorithm", "PPO").Number("loss", 0.25);
  EXPECT_EQ(record.ToJson(), "{\"iteration\":3,\"algorithm\":\"PPO\",\"loss\":0.25}");
  EXPECT_TRUE(JsonValidate(record.ToJson()));
}

TEST(ObsTelemetryTest, SinkWritesOneValidJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "/obs_telemetry_test.jsonl";
  {
    TelemetrySink sink(path);
    ASSERT_TRUE(sink.ok());
    for (int i = 0; i < 3; ++i) {
      TelemetryFields record;
      record.Number("iteration", i).Number("value", 1.5 * i);
      sink.Append(record);
    }
    EXPECT_EQ(sink.records_written(), 3u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  int lines = 0;
  for (std::string line; std::getline(in, line);) {
    std::string error;
    EXPECT_TRUE(JsonValidate(line, &error)) << line << ": " << error;
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(ObsTelemetryTest, BenchReportWritesNamedJsonFile) {
  BenchReport report("obs_test_panel");
  report.AddRow().Text("system", "HybridFlow").Number("gpus", 8).Number("tokens_per_sec", 123.5);
  report.AddRow().Text("system", "DS-Chat").Number("gpus", 8).Number("tokens_per_sec", 45.0);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(report.WriteJson(dir));
  const std::string path = report.FilePath(dir);
  EXPECT_NE(path.find("BENCH_obs_test_panel.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  EXPECT_TRUE(JsonValidate(buffer.str(), &error)) << error;
  EXPECT_NE(buffer.str().find("\"bench\":\"obs_test_panel\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"tokens_per_sec\":123.5"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hybridflow
