// Golden pins for the four continuous-batching entry points:
// SimulateContinuousGeneration (sim rollout), SimulateServing (sim
// serving), RolloutEngine::Run (data rollout) and ServingFrontend::Serve
// (data serving), plus the registry series they and
// ActorWorkerGroup::GenerationSeconds emit.
//
// Pins work as described in tests/golden_pins.h. Every constant is an
// exact output: a refactor of the step loop must reproduce all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/system_builder.h"
#include "src/common/rng.h"
#include "src/data/arrival_trace.h"
#include "src/nn/policy_net.h"
#include "src/obs/metrics.h"
#include "src/obs/seq_events.h"
#include "src/rollout/engine.h"
#include "src/rollout/timing.h"
#include "src/serving/frontend.h"
#include "src/serving/sim.h"
#include "src/workers/model_workers.h"
#include "tests/golden_pins.h"

namespace hybridflow {
namespace {

void PinDigest(PinGrid* grid, const std::string& name, const LatencyDigest& digest) {
  grid->Field(name + ".count", static_cast<uint64_t>(digest.count));
  grid->Field(name + ".mean", digest.mean);
  grid->Field(name + ".p50", digest.p50);
  grid->Field(name + ".p90", digest.p90);
  grid->Field(name + ".p99", digest.p99);
  grid->Field(name + ".max", digest.max);
}

template <typename T, typename Fn>
uint64_t Series(const std::vector<T>& items, Fn&& bits) {
  Fnv fnv;
  fnv.Mix(items.size());
  for (const T& item : items) {
    fnv.Mix(bits(item));
  }
  return fnv.state;
}

uint64_t TokenRows(const std::vector<std::vector<int64_t>>& rows) {
  Fnv fnv;
  fnv.Mix(rows.size());
  for (const std::vector<int64_t>& row : rows) {
    fnv.Mix(Series(row, [](int64_t t) { return static_cast<uint64_t>(t); }));
  }
  return fnv.state;
}

uint64_t FloatRows(const std::vector<std::vector<float>>& rows) {
  Fnv fnv;
  fnv.Mix(rows.size());
  for (const std::vector<float>& row : rows) {
    fnv.Mix(Series(row, [](float v) { return Bits(static_cast<double>(v)); }));
  }
  return fnv.state;
}

// Event stream without wall-clock stamps (those are not reproducible).
uint64_t Events(const std::vector<SeqEvent>& events) {
  return Series(events, [](const SeqEvent& event) {
    Fnv fnv;
    fnv.Mix(static_cast<uint64_t>(event.seq));
    fnv.Mix(static_cast<uint64_t>(event.kind));
    fnv.Mix(static_cast<uint64_t>(event.step));
    fnv.Mix(static_cast<uint64_t>(event.tokens));
    fnv.Mix(Bits(event.sim_seconds));
    return fnv.state;
  });
}

void PinRolloutStats(PinGrid* grid, const RolloutStats& stats) {
  grid->Field("stats.steps", stats.steps);
  grid->Field("stats.sequences", stats.sequences);
  grid->Field("stats.admissions", stats.admissions);
  grid->Field("stats.preemptions", stats.preemptions);
  grid->Field("stats.max_running_batch", stats.max_running_batch);
  grid->Field("stats.queue_wait_steps_total", stats.queue_wait_steps_total);
  grid->Field("stats.queue_wait_steps_max", stats.queue_wait_steps_max);
  grid->Field("stats.kv_high_water_blocks", stats.kv_high_water_blocks);
  grid->Field("stats.kv_peak_utilization", stats.kv_peak_utilization);
  grid->Field("stats.prefill_chunks", stats.prefill_chunks);
  grid->Field("stats.max_prefill_tokens_step", stats.max_prefill_tokens_step);
  grid->Field("stats.resumes", stats.resumes);
  grid->Field("stats.recomputed_tokens", stats.recomputed_tokens);
  grid->Field("stats.prefix_skipped_tokens", stats.prefix_skipped_tokens);
  grid->Field("stats.shared_blocks_high_water", stats.shared_blocks_high_water);
}

void PinSchedulerStats(PinGrid* grid, const RolloutSchedulerStats& stats) {
  grid->Field("scheduler.steps", stats.steps);
  grid->Field("scheduler.admissions", stats.admissions);
  grid->Field("scheduler.preemptions", stats.preemptions);
  grid->Field("scheduler.max_running", stats.max_running);
  grid->Field("scheduler.prefill_chunks", stats.prefill_chunks);
  grid->Field("scheduler.max_prefill_tokens_step", stats.max_prefill_tokens_step);
  grid->Field("scheduler.resumes", stats.resumes);
  grid->Field("scheduler.recomputed_tokens", stats.recomputed_tokens);
  grid->Field("scheduler.cancelled", stats.cancelled);
  grid->Field("scheduler.expired", stats.expired);
  grid->Field("scheduler.prefix_skipped_tokens", stats.prefix_skipped_tokens);
}

void PinRecords(PinGrid* grid, const std::vector<RequestRecord>& records) {
  const auto field = [&](const char* name, auto bits) {
    grid->Field(std::string("records.") + name, Series(records, bits));
  };
  field("echo", [](const RequestRecord& r) {
    Fnv fnv;
    fnv.Mix(static_cast<uint64_t>(r.id));
    fnv.Mix(static_cast<uint64_t>(r.tenant));
    fnv.Mix(static_cast<uint64_t>(r.priority));
    fnv.Mix(Bits(r.ttft_deadline));
    fnv.Mix(Bits(r.tpot_slo));
    return fnv.state;
  });
  field("outcome", [](const RequestRecord& r) { return static_cast<uint64_t>(r.outcome); });
  field("arrival", [](const RequestRecord& r) { return Bits(r.arrival); });
  field("first_token_time", [](const RequestRecord& r) { return Bits(r.first_token_time); });
  field("end_time", [](const RequestRecord& r) { return Bits(r.end_time); });
  field("tokens", [](const RequestRecord& r) { return static_cast<uint64_t>(r.tokens); });
  field("preemptions",
        [](const RequestRecord& r) { return static_cast<uint64_t>(r.preemptions); });
  field("ttft", [](const RequestRecord& r) { return Bits(r.ttft); });
  field("tpot", [](const RequestRecord& r) { return Bits(r.tpot); });
  field("slo_ok", [](const RequestRecord& r) { return static_cast<uint64_t>(r.slo_ok); });
  std::vector<std::vector<int64_t>> responses;
  std::vector<std::vector<float>> log_probs;
  for (const RequestRecord& record : records) {
    responses.push_back(record.response);
    log_probs.push_back(record.log_probs);
  }
  grid->Field("records.response", TokenRows(responses));
  grid->Field("records.log_probs", FloatRows(log_probs));
}

void PinReport(PinGrid* grid, const ServingReport& report) {
  grid->Field("report.makespan", report.makespan);
  grid->Field("report.requests", report.requests);
  grid->Field("report.finished", report.finished);
  grid->Field("report.cancelled", report.cancelled);
  grid->Field("report.expired", report.expired);
  grid->Field("report.slo_attained", report.slo_attained);
  grid->Field("report.goodput", report.goodput);
  grid->Field("report.tenants", Series(report.tenants, [](const TenantServingStats& t) {
                Fnv fnv;
                for (int64_t v : {t.tenant, t.requests, t.finished, t.cancelled, t.expired,
                                  t.slo_attained, t.goodput_tokens}) {
                  fnv.Mix(static_cast<uint64_t>(v));
                }
                fnv.Mix(Bits(t.goodput));
                for (const LatencyDigest* d : {&t.ttft, &t.tpot}) {
                  fnv.Mix(d->count);
                  for (double v : {d->mean, d->p50, d->p90, d->p99, d->max}) {
                    fnv.Mix(Bits(v));
                  }
                }
                return fnv.state;
              }));
}

// --- Sim plane --------------------------------------------------------------

const GenParallelConfig kGen{1, 2};
const std::vector<DeviceId> kDevices{0, 1};

PerfModel GoldenPerf() { return PerfModel(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8)); }

double BudgetBytes(const PerfModel& perf, int64_t blocks) {
  return static_cast<double>(blocks) * 16.0 * perf.KvBytesPerTokenPerGpu(kGen);
}

// 24 sequences: four groups of four sharing a prompt (group sampling),
// seven unique prompts, and one zero-length response.
std::vector<NominalSequence> GoldenNominal() {
  Rng rng(4242);
  std::vector<NominalSequence> sequences;
  for (int64_t group = 0; group < 4; ++group) {
    const int64_t prompt = 96 + 48 * group;
    for (int k = 0; k < 4; ++k) {
      sequences.push_back({prompt, rng.UniformInt(16, 200), group});
    }
  }
  for (int k = 0; k < 7; ++k) {
    sequences.push_back({rng.UniformInt(24, 320), rng.UniformInt(16, 200), -1});
  }
  sequences.push_back({64, 0, -1});
  return sequences;
}

// 24 requests over ~1.2 s, two tenants (tenant 0 carries TTFT/TPOT SLOs
// and a higher priority), with two shared-prompt groups and ties in
// arrival time.
std::vector<ArrivalRecord> GoldenTrace() {
  Rng rng(2024);
  std::vector<ArrivalRecord> trace;
  double t = 0.0;
  for (int64_t i = 0; i < 24; ++i) {
    ArrivalRecord record;
    record.index = i;
    t += 0.02 * static_cast<double>(rng.UniformInt(0, 5));
    record.arrival = t;
    record.tenant = i % 3 == 0 ? 0 : 1;
    record.priority = record.tenant == 0 ? 10 : 0;
    record.prompt_group = i % 4 == 1 ? 7 : (i % 4 == 2 ? 9 : -1);
    record.prompt_tokens = record.prompt_group == 7   ? 160
                           : record.prompt_group == 9 ? 96
                                                      : rng.UniformInt(24, 320);
    record.target_new_tokens = rng.UniformInt(4, 96);
    record.ttft_deadline = record.tenant == 0 ? record.arrival + 0.25 : 0.0;
    record.tpot_slo = record.tenant == 0 ? 0.02 : 0.0;
    trace.push_back(record);
  }
  return trace;
}

std::string SimCaseName(int64_t chunk, RolloutPolicy policy, bool tight, bool cache) {
  return "chunk" + std::to_string(chunk) +
         (policy == RolloutPolicy::kFcfs ? "/fcfs" : "/longest_prefix") +
         (tight ? "/tight" : "/ample") + (cache ? "/cache" : "/nocache");
}

void PinRolloutSim(PinGrid* grid, const std::string& name, const RolloutOptions& options,
                   int64_t budget_blocks) {
  const PerfModel perf = GoldenPerf();
  SeqEventLog events;
  RolloutOptions recorded = options;
  recorded.sim_event_log = &events;
  const RolloutSimResult result = SimulateContinuousGeneration(
      perf, kGen, kDevices, GoldenNominal(), BudgetBytes(perf, budget_blocks), recorded);
  grid->BeginCase(name);
  grid->Field("time.prefill_seconds", result.time.prefill_seconds);
  grid->Field("time.decode_seconds", result.time.decode_seconds);
  grid->Field("time.comm_seconds", result.time.comm_seconds);
  grid->Field("time.waves", result.time.waves);
  grid->Field("max_step_seconds", result.max_step_seconds);
  PinRolloutStats(grid, result.stats);
  grid->Field("latency.sequences", result.latency.sequences);
  grid->Field("latency.finished", result.latency.finished);
  grid->Field("latency.preemptions", result.latency.preemptions);
  grid->Field("latency.recomputed_tokens", result.latency.recomputed_tokens);
  PinDigest(grid, "latency.ttft", result.latency.ttft);
  PinDigest(grid, "latency.tpot", result.latency.tpot);
  PinDigest(grid, "latency.queue_delay", result.latency.queue_delay);
  PinDigest(grid, "latency.preemption_stall", result.latency.preemption_stall);
  grid->Field("events", Events(events.Snapshot()));
}

const std::vector<Pin> kRolloutSimCases = {
    {"chunk0/fcfs/tight/nocache", 0xfe17efa733e7c641ULL},
    {"chunk0/fcfs/tight/cache", 0xb4de1e6ee00b6c4cULL},
    {"chunk0/fcfs/ample/nocache", 0xc97ca8359bf44d36ULL},
    {"chunk0/fcfs/ample/cache", 0x21e5e9f9469cc7f3ULL},
    {"chunk0/longest_prefix/tight/nocache", 0xc411131ea9cbf0d3ULL},
    {"chunk0/longest_prefix/tight/cache", 0x7ad1544c5e5af032ULL},
    {"chunk0/longest_prefix/ample/nocache", 0xc88f911e9d8787caULL},
    {"chunk0/longest_prefix/ample/cache", 0xbfa3e73f4250ba89ULL},
    {"chunk64/fcfs/tight/nocache", 0x3f94c5b355e84520ULL},
    {"chunk64/fcfs/tight/cache", 0x27082a36122191bfULL},
    {"chunk64/fcfs/ample/nocache", 0x49c9dbbb6cfe5b18ULL},
    {"chunk64/fcfs/ample/cache", 0x1bed5927500d7bd5ULL},
    {"chunk64/longest_prefix/tight/nocache", 0xd850f5bba69877afULL},
    {"chunk64/longest_prefix/tight/cache", 0x64cdf351deac8c0fULL},
    {"chunk64/longest_prefix/ample/nocache", 0x38b1ac1b4bae0964ULL},
    {"chunk64/longest_prefix/ample/cache", 0x9d10b1e8529847b2ULL},
    {"chunk64/fcfs/tight/cache/reserve_full_length", 0x48e84331c41f71e7ULL},
    {"chunk0/fcfs/tight/nocache/max_running4", 0xa5c2bcec14a3eaf4ULL},
};
const std::vector<Pin> kRolloutSimFields = {
    {"time.prefill_seconds", 0x426e034ba1ed0ecfULL},
    {"time.decode_seconds", 0xa92860dc69b86fefULL},
    {"time.comm_seconds", 0x1c8b4cfd822bbf27ULL},
    {"time.waves", 0x908adb63a2154f45ULL},
    {"max_step_seconds", 0x0dc631c3650af69cULL},
    {"stats.steps", 0x0733af841bb14ab4ULL},
    {"stats.sequences", 0x83e773be3aad9965ULL},
    {"stats.admissions", 0x2fe915ac9e1b462eULL},
    {"stats.preemptions", 0x54f1d674119bbf98ULL},
    {"stats.max_running_batch", 0xb928c58a8018a3d8ULL},
    {"stats.queue_wait_steps_total", 0xce236409da42f6e6ULL},
    {"stats.queue_wait_steps_max", 0xf7c04f6cfff5937fULL},
    {"stats.kv_high_water_blocks", 0x3ea1915275caf6d2ULL},
    {"stats.kv_peak_utilization", 0x6300734714cbc7d4ULL},
    {"stats.prefill_chunks", 0xb0680d52e94c423bULL},
    {"stats.max_prefill_tokens_step", 0xfffc82670fdbbe8cULL},
    {"stats.resumes", 0x54f1d674119bbf98ULL},
    {"stats.recomputed_tokens", 0xa6ca4327919fc61fULL},
    {"stats.prefix_skipped_tokens", 0xf1894d16fa310cf7ULL},
    {"stats.shared_blocks_high_water", 0xe7d5e7d8188496a1ULL},
    {"latency.sequences", 0x93b478632abc8305ULL},
    {"latency.finished", 0x93b478632abc8305ULL},
    {"latency.preemptions", 0x54f1d674119bbf98ULL},
    {"latency.recomputed_tokens", 0xa6ca4327919fc61fULL},
    {"latency.ttft.count", 0x93b478632abc8305ULL},
    {"latency.ttft.mean", 0x872c1d5ee19e3e99ULL},
    {"latency.ttft.p50", 0x9fd9e71f66b88788ULL},
    {"latency.ttft.p90", 0x2ed17c0b3549bfe3ULL},
    {"latency.ttft.p99", 0xf3c78200920d01d1ULL},
    {"latency.ttft.max", 0xf3c78200920d01d1ULL},
    {"latency.tpot.count", 0x93b478632abc8305ULL},
    {"latency.tpot.mean", 0x19ca4965c2766c09ULL},
    {"latency.tpot.p50", 0x3d36596c50cf2678ULL},
    {"latency.tpot.p90", 0x325ad7b569aae137ULL},
    {"latency.tpot.p99", 0xea255e187df0d85eULL},
    {"latency.tpot.max", 0xea255e187df0d85eULL},
    {"latency.queue_delay.count", 0x93b478632abc8305ULL},
    {"latency.queue_delay.mean", 0xa6b5a6cd3510731dULL},
    {"latency.queue_delay.p50", 0x9ee32adcc1b45227ULL},
    {"latency.queue_delay.p90", 0x2e04d2dc27007389ULL},
    {"latency.queue_delay.p99", 0xf5cc8b04a1557e0fULL},
    {"latency.queue_delay.max", 0xf5cc8b04a1557e0fULL},
    {"latency.preemption_stall.count", 0xa8c76c2a07473b96ULL},
    {"latency.preemption_stall.mean", 0x785fcdfd4fd803acULL},
    {"latency.preemption_stall.p50", 0x0ec1c5fca7deafcbULL},
    {"latency.preemption_stall.p90", 0x1354364d6c3f5a26ULL},
    {"latency.preemption_stall.p99", 0xc2294333de5c18c7ULL},
    {"latency.preemption_stall.max", 0xc2294333de5c18c7ULL},
    {"events", 0x5565d6b7f9b5f1c2ULL},
};

TEST(StepDriverGoldenTest, SimulateContinuousGenerationPinned) {
  PinGrid grid;
  for (const int64_t chunk : {int64_t{0}, int64_t{64}}) {
    for (const RolloutPolicy policy : {RolloutPolicy::kFcfs, RolloutPolicy::kLongestPrefixFirst}) {
      for (const bool tight : {true, false}) {
        for (const bool cache : {false, true}) {
          RolloutOptions options;
          options.mode = RolloutMode::kContinuous;
          options.policy = policy;
          options.prefill_chunk_tokens = chunk;
          options.enable_prefix_cache = cache;
          PinRolloutSim(&grid, SimCaseName(chunk, policy, tight, cache), options,
                        tight ? 48 : 4096);
        }
      }
    }
  }
  RolloutOptions reserve;
  reserve.prefill_chunk_tokens = 64;
  reserve.enable_prefix_cache = true;
  reserve.reserve_full_length = true;
  PinRolloutSim(&grid, "chunk64/fcfs/tight/cache/reserve_full_length", reserve, 48);
  RolloutOptions capped;
  capped.max_running = 4;
  capped.reserve_tokens = 8;
  PinRolloutSim(&grid, "chunk0/fcfs/tight/nocache/max_running4", capped, 48);
  ExpectPins(grid, kRolloutSimCases, kRolloutSimFields);
}

const char* AdmissionName(AdmissionPolicy admission) {
  switch (admission) {
    case AdmissionPolicy::kQueueOrder:
      return "queue";
    case AdmissionPolicy::kPriority:
      return "priority";
    case AdmissionPolicy::kDeadline:
      return "deadline";
    case AdmissionPolicy::kWeightedFair:
      return "weighted_fair";
  }
  return "?";
}

PinGrid ServingSimGrid(bool cache) {
  const PerfModel perf = GoldenPerf();
  const std::vector<ArrivalRecord> trace = GoldenTrace();
  PinGrid grid;
  for (const int64_t chunk : {int64_t{0}, int64_t{64}}) {
    for (const RolloutPolicy policy : {RolloutPolicy::kFcfs, RolloutPolicy::kLongestPrefixFirst}) {
      for (const bool tight : {true, false}) {
        for (const AdmissionPolicy admission :
             {AdmissionPolicy::kQueueOrder, AdmissionPolicy::kPriority,
              AdmissionPolicy::kDeadline, AdmissionPolicy::kWeightedFair}) {
          ServingPolicyConfig config;
          config.policy = policy;
          config.admission = admission;
          config.prefill_chunk_tokens = chunk;
          config.prefix_cache = cache;
          config.tenant_weights = {{0, 3.0}, {1, 1.0}};
          config.fair_quantum_tokens = 128;
          const ServingSimResult result = SimulateServing(
              perf, kGen, kDevices, trace, BudgetBytes(perf, tight ? 40 : 4096), config);
          grid.BeginCase(SimCaseName(chunk, policy, tight, cache) + "/" +
                         AdmissionName(admission));
          PinRecords(&grid, result.records);
          PinReport(&grid, result.report);
          PinSchedulerStats(&grid, result.scheduler_stats);
          grid.Field("kv_high_water_blocks", result.kv_high_water_blocks);
          grid.Field("kv_leaked_blocks", result.kv_leaked_blocks);
          grid.Field("sim_seconds", result.sim_seconds);
        }
      }
    }
  }
  return grid;
}

const std::vector<Pin> kServingSimCases = {
    {"chunk0/fcfs/tight/nocache/queue", 0x0b27a8ad0ee4ac1fULL},
    {"chunk0/fcfs/tight/nocache/priority", 0x7da10a8beadafc45ULL},
    {"chunk0/fcfs/tight/nocache/deadline", 0x7da10a8beadafc45ULL},
    {"chunk0/fcfs/tight/nocache/weighted_fair", 0x4ab86487ffcba2d2ULL},
    {"chunk0/fcfs/ample/nocache/queue", 0x034deab4d5371bc8ULL},
    {"chunk0/fcfs/ample/nocache/priority", 0x034deab4d5371bc8ULL},
    {"chunk0/fcfs/ample/nocache/deadline", 0x034deab4d5371bc8ULL},
    {"chunk0/fcfs/ample/nocache/weighted_fair", 0x57080f0afce99f00ULL},
    {"chunk0/longest_prefix/tight/nocache/queue", 0xadb2016c41d4e59aULL},
    {"chunk0/longest_prefix/tight/nocache/priority", 0xd541320925b76f76ULL},
    {"chunk0/longest_prefix/tight/nocache/deadline", 0xd541320925b76f76ULL},
    {"chunk0/longest_prefix/tight/nocache/weighted_fair", 0x4ab86487ffcba2d2ULL},
    {"chunk0/longest_prefix/ample/nocache/queue", 0x034deab4d5371bc8ULL},
    {"chunk0/longest_prefix/ample/nocache/priority", 0x034deab4d5371bc8ULL},
    {"chunk0/longest_prefix/ample/nocache/deadline", 0x034deab4d5371bc8ULL},
    {"chunk0/longest_prefix/ample/nocache/weighted_fair", 0x57080f0afce99f00ULL},
    {"chunk64/fcfs/tight/nocache/queue", 0x9305f22f4c4089f5ULL},
    {"chunk64/fcfs/tight/nocache/priority", 0x24f1111cc0b14079ULL},
    {"chunk64/fcfs/tight/nocache/deadline", 0x24f1111cc0b14079ULL},
    {"chunk64/fcfs/tight/nocache/weighted_fair", 0xf8426395ad07ff29ULL},
    {"chunk64/fcfs/ample/nocache/queue", 0xbc883d3f217d6764ULL},
    {"chunk64/fcfs/ample/nocache/priority", 0x6e9e3978e3e7119bULL},
    {"chunk64/fcfs/ample/nocache/deadline", 0x6e9e3978e3e7119bULL},
    {"chunk64/fcfs/ample/nocache/weighted_fair", 0xe7bb67deefac6851ULL},
    {"chunk64/longest_prefix/tight/nocache/queue", 0x3128d288ab0a6642ULL},
    {"chunk64/longest_prefix/tight/nocache/priority", 0x3f090a5ffd37f771ULL},
    {"chunk64/longest_prefix/tight/nocache/deadline", 0x3f090a5ffd37f771ULL},
    {"chunk64/longest_prefix/tight/nocache/weighted_fair", 0xf8426395ad07ff29ULL},
    {"chunk64/longest_prefix/ample/nocache/queue", 0x8bc5537f7f90fe4bULL},
    {"chunk64/longest_prefix/ample/nocache/priority", 0x6e9e3978e3e7119bULL},
    {"chunk64/longest_prefix/ample/nocache/deadline", 0x6e9e3978e3e7119bULL},
    {"chunk64/longest_prefix/ample/nocache/weighted_fair", 0xe7bb67deefac6851ULL},
};
const std::vector<Pin> kServingSimFields = {
    {"records.echo", 0x6852cdd968a17225ULL},
    {"records.outcome", 0x2779528c625b2371ULL},
    {"records.arrival", 0xe13079e1e158df25ULL},
    {"records.first_token_time", 0xf8b7c4b44f0c37beULL},
    {"records.end_time", 0x7fbd79c531c6dc0cULL},
    {"records.tokens", 0x2c049d019078de19ULL},
    {"records.preemptions", 0x06833f39d5f9ba9fULL},
    {"records.ttft", 0x1f9b37bbc698c166ULL},
    {"records.tpot", 0xb6400d25d762ee2dULL},
    {"records.slo_ok", 0x1ece3ac9152bfa7fULL},
    {"records.response", 0xc7fd6d60a3baede5ULL},
    {"records.log_probs", 0xc7fd6d60a3baede5ULL},
    {"report.makespan", 0x963425d23f13f9eaULL},
    {"report.requests", 0xbd30cfacd69ae725ULL},
    {"report.finished", 0x09855af3023d7be5ULL},
    {"report.cancelled", 0xd80ac658736bb725ULL},
    {"report.expired", 0x24213cf16e0bd261ULL},
    {"report.slo_attained", 0xacde98c40615b1a3ULL},
    {"report.goodput", 0x1ec546502ed5efa1ULL},
    {"report.tenants", 0xadbb83a512e93a2fULL},
    {"scheduler.steps", 0xa66ce6d20b31aad1ULL},
    {"scheduler.admissions", 0x748d9a20f511df53ULL},
    {"scheduler.preemptions", 0x79120bbd29a732ecULL},
    {"scheduler.max_running", 0xa37a5e1b14c81024ULL},
    {"scheduler.prefill_chunks", 0x73588a9a2ac0eaa9ULL},
    {"scheduler.max_prefill_tokens_step", 0x1ba62bd48b1c7812ULL},
    {"scheduler.resumes", 0x79120bbd29a732ecULL},
    {"scheduler.recomputed_tokens", 0x36fe5a2fb641ec19ULL},
    {"scheduler.cancelled", 0xd80ac658736bb725ULL},
    {"scheduler.expired", 0x24213cf16e0bd261ULL},
    {"scheduler.prefix_skipped_tokens", 0xd80ac658736bb725ULL},
    {"kv_high_water_blocks", 0x800aec1e521f0f25ULL},
    {"kv_leaked_blocks", 0xd80ac658736bb725ULL},
    {"sim_seconds", 0x963425d23f13f9eaULL},
};

TEST(StepDriverGoldenTest, SimulateServingPinned) {
  ExpectPins(ServingSimGrid(/*cache=*/false), kServingSimCases, kServingSimFields);
}

// Unique prompts hash in their own namespace (SimPromptHashes), so a
// preempted request's retained prompt blocks are prefix hits on resume;
// this shapes every tight-budget case here that preempts one.
const std::vector<Pin> kServingSimCacheCases = {
    {"chunk0/fcfs/tight/cache/queue", 0x7f35d18424ec67d3ULL},
    {"chunk0/fcfs/tight/cache/priority", 0x469f22400ac65c6fULL},
    {"chunk0/fcfs/tight/cache/deadline", 0x469f22400ac65c6fULL},
    {"chunk0/fcfs/tight/cache/weighted_fair", 0x628b527d91a904abULL},
    {"chunk0/fcfs/ample/cache/queue", 0xab69940881f964b5ULL},
    {"chunk0/fcfs/ample/cache/priority", 0xab69940881f964b5ULL},
    {"chunk0/fcfs/ample/cache/deadline", 0xab69940881f964b5ULL},
    {"chunk0/fcfs/ample/cache/weighted_fair", 0x30e66fbb1d4fd1ffULL},
    {"chunk0/longest_prefix/tight/cache/queue", 0xf3d4f7eca9e9b4a4ULL},
    {"chunk0/longest_prefix/tight/cache/priority", 0x9c6ff7d449e1b25bULL},
    {"chunk0/longest_prefix/tight/cache/deadline", 0x9c6ff7d449e1b25bULL},
    {"chunk0/longest_prefix/tight/cache/weighted_fair", 0x628b527d91a904abULL},
    {"chunk0/longest_prefix/ample/cache/queue", 0xab69940881f964b5ULL},
    {"chunk0/longest_prefix/ample/cache/priority", 0xab69940881f964b5ULL},
    {"chunk0/longest_prefix/ample/cache/deadline", 0xab69940881f964b5ULL},
    {"chunk0/longest_prefix/ample/cache/weighted_fair", 0x30e66fbb1d4fd1ffULL},
    {"chunk64/fcfs/tight/cache/queue", 0x54fad9a1ad0286d2ULL},
    {"chunk64/fcfs/tight/cache/priority", 0x469f8437485d5f1cULL},
    {"chunk64/fcfs/tight/cache/deadline", 0x469f8437485d5f1cULL},
    {"chunk64/fcfs/tight/cache/weighted_fair", 0x53cc980b80ba0fe2ULL},
    {"chunk64/fcfs/ample/cache/queue", 0xd015ab43e4fca304ULL},
    {"chunk64/fcfs/ample/cache/priority", 0xb1efa684d05da4d1ULL},
    {"chunk64/fcfs/ample/cache/deadline", 0xb1efa684d05da4d1ULL},
    {"chunk64/fcfs/ample/cache/weighted_fair", 0xbce823b8d932bcc7ULL},
    {"chunk64/longest_prefix/tight/cache/queue", 0x7605edd9c3393464ULL},
    {"chunk64/longest_prefix/tight/cache/priority", 0x3c99c38729e3dc0eULL},
    {"chunk64/longest_prefix/tight/cache/deadline", 0x3c99c38729e3dc0eULL},
    {"chunk64/longest_prefix/tight/cache/weighted_fair", 0x53cc980b80ba0fe2ULL},
    {"chunk64/longest_prefix/ample/cache/queue", 0xb1efa684d05da4d1ULL},
    {"chunk64/longest_prefix/ample/cache/priority", 0xb1efa684d05da4d1ULL},
    {"chunk64/longest_prefix/ample/cache/deadline", 0xb1efa684d05da4d1ULL},
    {"chunk64/longest_prefix/ample/cache/weighted_fair", 0xbce823b8d932bcc7ULL},
};
const std::vector<Pin> kServingSimCacheFields = {
    {"records.echo", 0x6852cdd968a17225ULL},
    {"records.outcome", 0x244e68035a238823ULL},
    {"records.arrival", 0xe13079e1e158df25ULL},
    {"records.first_token_time", 0x94f0bbc97fe8d998ULL},
    {"records.end_time", 0x69fbcdf4535c6f1cULL},
    {"records.tokens", 0x7bf0ff7b492b4151ULL},
    {"records.preemptions", 0x7fa61adf3d65ab31ULL},
    {"records.ttft", 0x6c2775e400ec3ff0ULL},
    {"records.tpot", 0xe043f978ed9fdd8aULL},
    {"records.slo_ok", 0x846a6bd97efe8ba3ULL},
    {"records.response", 0xc7fd6d60a3baede5ULL},
    {"records.log_probs", 0xc7fd6d60a3baede5ULL},
    {"report.makespan", 0xc033307fa91b616cULL},
    {"report.requests", 0xbd30cfacd69ae725ULL},
    {"report.finished", 0xde8de63dfc900164ULL},
    {"report.cancelled", 0xd80ac658736bb725ULL},
    {"report.expired", 0x400ceb940e740462ULL},
    {"report.slo_attained", 0x6e893a1e8ee395a4ULL},
    {"report.goodput", 0x0e4b7867f3442a29ULL},
    {"report.tenants", 0x7bd6582ed1b7d761ULL},
    {"scheduler.steps", 0x7e5332099397bb22ULL},
    {"scheduler.admissions", 0xdad2dc1029650057ULL},
    {"scheduler.preemptions", 0x1d020a8925b5bf0eULL},
    {"scheduler.max_running", 0x9a4a97b75bc8d785ULL},
    {"scheduler.prefill_chunks", 0x3e8745840b8ae852ULL},
    {"scheduler.max_prefill_tokens_step", 0x06ca527f08bb1ac4ULL},
    {"scheduler.resumes", 0x264d0a1846b5f74fULL},
    {"scheduler.recomputed_tokens", 0x9b156b934a4fae2eULL},
    {"scheduler.cancelled", 0xd80ac658736bb725ULL},
    {"scheduler.expired", 0x400ceb940e740462ULL},
    {"scheduler.prefix_skipped_tokens", 0x341ae45690e65476ULL},
    {"kv_high_water_blocks", 0xa859dc9fb2600025ULL},
    {"kv_leaked_blocks", 0xd80ac658736bb725ULL},
    {"sim_seconds", 0xc033307fa91b616cULL},
};

TEST(StepDriverGoldenTest, SimulateServingPrefixCachePinned) {
  ExpectPins(ServingSimGrid(/*cache=*/true), kServingSimCacheCases, kServingSimCacheFields);
}

// --- Data plane ---------------------------------------------------------------

PolicyNet GoldenNet() {
  PolicyNetConfig config;
  config.vocab_size = 16;
  config.context_window = 3;
  config.embed_dim = 8;
  config.hidden_dim = 16;
  Rng rng(1234);
  return PolicyNet(config, rng);
}

// Ten prompts; 1/5 and 3/7 are identical (prefix-cache sharing).
std::vector<std::vector<int64_t>> GoldenPrompts() {
  Rng rng(77);
  std::vector<std::vector<int64_t>> prompts(10);
  for (size_t i = 0; i < prompts.size(); ++i) {
    if (i == 5 || i == 7) {
      prompts[i] = prompts[i - 4];
      continue;
    }
    prompts[i].resize(static_cast<size_t>(rng.UniformInt(2, 9)));
    for (int64_t& token : prompts[i]) {
      token = rng.UniformInt(0, 15);
    }
  }
  return prompts;
}

const std::vector<Pin> kRolloutEngineCases = {
    {"chunk0/nocache/tight/greedy", 0x5217cb4e87a62139ULL},
    {"chunk0/cache/tight/greedy", 0x64b90b1d66e508b0ULL},
    {"chunk3/nocache/tight/greedy", 0xc4a29e7dfd5cb576ULL},
    {"chunk3/cache/tight/greedy", 0x5f2abb788bba8d66ULL},
    {"chunk0/nocache/ample/greedy", 0x9b4e63b6e23a0295ULL},
    {"chunk0/nocache/tight/sampled_lpf", 0x51297ff5a585bcfbULL},
};
const std::vector<Pin> kRolloutEngineFields = {
    {"responses", 0xe76ab17318e1ca2dULL},
    {"log_probs", 0xb2a6965d01e66e98ULL},
    {"stats.steps", 0x3a8de9d79e009799ULL},
    {"stats.sequences", 0xdb515aa6331eeea5ULL},
    {"stats.admissions", 0xadbc835abdbef359ULL},
    {"stats.preemptions", 0xcf542f8bcafd0a81ULL},
    {"stats.max_running_batch", 0xbd699289966c624cULL},
    {"stats.queue_wait_steps_total", 0x650d4e3bcd9a5f98ULL},
    {"stats.queue_wait_steps_max", 0x4f4c2257bce35508ULL},
    {"stats.kv_high_water_blocks", 0x9ffcc876f75b6b95ULL},
    {"stats.kv_peak_utilization", 0xdad1e53ed26dcc7bULL},
    {"stats.prefill_chunks", 0x4661055f3d0b656fULL},
    {"stats.max_prefill_tokens_step", 0xf37334e97f6c2d05ULL},
    {"stats.resumes", 0xcf542f8bcafd0a81ULL},
    {"stats.recomputed_tokens", 0xea55497e1a6e5c37ULL},
    {"stats.prefix_skipped_tokens", 0x36a3392a50813fabULL},
    {"stats.shared_blocks_high_water", 0xddd5a5ef027e0c27ULL},
    {"events", 0x18608103c1e2ca14ULL},
};

TEST(StepDriverGoldenTest, RolloutEnginePinned) {
  const PolicyNet net = GoldenNet();
  const std::vector<std::vector<int64_t>> prompts = GoldenPrompts();
  RolloutLimits limits;
  limits.max_new_tokens = 6;
  limits.use_eos = true;
  limits.eos_token = 3;
  PinGrid grid;
  const auto run = [&](const std::string& name, const RolloutOptions& base, bool do_sample) {
    SeqEventLog events;
    RolloutOptions options = base;
    options.mode = RolloutMode::kContinuous;
    options.event_log = &events;
    const RolloutEngine engine(net, limits, options);
    Rng rng(31);
    const RolloutShardResult result = engine.Run(prompts, do_sample, /*temperature=*/0.8, rng);
    grid.BeginCase(name);
    grid.Field("responses", TokenRows(result.responses));
    grid.Field("log_probs", FloatRows(result.log_probs));
    PinRolloutStats(&grid, result.stats);
    grid.Field("events", Events(events.Snapshot()));
  };
  for (const int64_t chunk : {int64_t{0}, int64_t{3}}) {
    for (const bool cache : {false, true}) {
      RolloutOptions options;
      options.block_tokens = 2;
      options.num_blocks = 9;  // Tight: forces preemption.
      options.prefill_chunk_tokens = chunk;
      options.enable_prefix_cache = cache;
      run("chunk" + std::to_string(chunk) + (cache ? "/cache" : "/nocache") + "/tight/greedy",
          options, false);
    }
  }
  RolloutOptions ample;
  run("chunk0/nocache/ample/greedy", ample, false);
  RolloutOptions sampled;
  sampled.block_tokens = 2;
  sampled.num_blocks = 9;
  sampled.policy = RolloutPolicy::kLongestPrefixFirst;
  run("chunk0/nocache/tight/sampled_lpf", sampled, true);
  ExpectPins(grid, kRolloutEngineCases, kRolloutEngineFields);
}

// Ten requests on two tenants: request 2 cancels after two streamed
// tokens, request 4's client refuses its second token, request 6 cancels
// at t=0.6, request 8 hangs up before it arrives, and tenant 0's TTFT
// deadline expires late arrivals under a tight KV pool.
std::vector<ServingRequest> GoldenRequests() {
  const std::vector<std::vector<int64_t>> prompts = GoldenPrompts();
  std::vector<ServingRequest> requests;
  for (int64_t i = 0; i < 10; ++i) {
    ServingRequest request;
    request.id = i;
    request.tenant = i % 2;
    request.priority = i % 2 == 0 ? 5 : 0;
    request.arrival = 0.1 * static_cast<double>((i * 7) % 5);
    request.prompt = prompts[static_cast<size_t>(i)];
    request.max_new_tokens = 3 + (i % 4);
    request.ttft_deadline = request.tenant == 0 ? request.arrival + 0.35 : 0.0;
    request.tpot_slo = request.tenant == 0 ? 0.08 : 0.0;
    if (i == 2) {
      request.cancel_after_tokens = 2;
    }
    if (i == 6) {
      request.cancel_at = 0.6;
    }
    if (i == 8) {
      request.cancel_at = request.arrival;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

const std::vector<Pin> kServingFrontendCases = {
    {"chunk0/queue", 0xb8c15b3b9c096b6eULL},
    {"chunk0/priority", 0x5d487596967b88afULL},
    {"chunk0/deadline", 0x5d487596967b88afULL},
    {"chunk0/weighted_fair", 0x84882b956085d9bdULL},
    {"chunk2/queue", 0xc1706150e5a3ecfaULL},
    {"chunk2/priority", 0x056881a2f3bd2993ULL},
    {"chunk2/deadline", 0x056881a2f3bd2993ULL},
    {"chunk2/weighted_fair", 0xc1706150e5a3ecfaULL},
};
const std::vector<Pin> kServingFrontendFields = {
    {"records.echo", 0x41da3319bbe03e55ULL},
    {"records.outcome", 0x0ef678152216dd8eULL},
    {"records.arrival", 0x3d12c16bb87ac415ULL},
    {"records.first_token_time", 0xf28aee3ecc9dc71bULL},
    {"records.end_time", 0xb63a2a80c42443ffULL},
    {"records.tokens", 0xe58a03feda4b6807ULL},
    {"records.preemptions", 0xd09342346d7e94d2ULL},
    {"records.ttft", 0x239c2a0e80c49f00ULL},
    {"records.tpot", 0xac44147e8dc943adULL},
    {"records.slo_ok", 0x1b9a3c39f51b6201ULL},
    {"records.response", 0x798233f879d07a24ULL},
    {"records.log_probs", 0x094bf58784db50b1ULL},
    {"report.makespan", 0xd5cbe1ccfffd3362ULL},
    {"report.requests", 0x7d2a239c053d1d25ULL},
    {"report.finished", 0xe94c3facd14720c5ULL},
    {"report.cancelled", 0xae99b923ff37cc64ULL},
    {"report.expired", 0xe7d20e2b04385a44ULL},
    {"report.slo_attained", 0xe94c3facd14720c5ULL},
    {"report.goodput", 0xd67d023603f5fa81ULL},
    {"report.tenants", 0xae06e94241b0d2ceULL},
    {"scheduler.steps", 0x2034ed334dd0c484ULL},
    {"scheduler.admissions", 0x6edcb2af418b6c45ULL},
    {"scheduler.preemptions", 0x2933a529fb0b60c5ULL},
    {"scheduler.max_running", 0x9de29b071d60c2c5ULL},
    {"scheduler.prefill_chunks", 0xba18599626f7df65ULL},
    {"scheduler.max_prefill_tokens_step", 0x534699ade68f05e7ULL},
    {"scheduler.resumes", 0x2436176f29951504ULL},
    {"scheduler.recomputed_tokens", 0x59182372b902e81dULL},
    {"scheduler.cancelled", 0xcc3b89d447d57d66ULL},
    {"scheduler.expired", 0xe7d20e2b04385a44ULL},
    {"scheduler.prefix_skipped_tokens", 0xb9b23f3a46fd0825ULL},
    {"kv_high_water_blocks", 0x22def5eedf304c25ULL},
    {"kv_leaked_blocks", 0xb9b23f3a46fd0825ULL},
    {"deltas", 0x69917f47ca85ef19ULL},
    {"events", 0xd6a4b058f06ab18cULL},
};

TEST(StepDriverGoldenTest, ServingFrontendPinned) {
  const PolicyNet net = GoldenNet();
  const std::vector<ServingRequest> requests = GoldenRequests();
  PinGrid grid;
  for (const int64_t chunk : {int64_t{0}, int64_t{2}}) {
    for (const AdmissionPolicy admission :
         {AdmissionPolicy::kQueueOrder, AdmissionPolicy::kPriority, AdmissionPolicy::kDeadline,
          AdmissionPolicy::kWeightedFair}) {
      SeqEventLog events;
      ServingFrontendConfig config;
      config.scheduler.admission = admission;
      config.scheduler.prefill_chunk_tokens = chunk;
      config.scheduler.tenant_weights = {{0, 3.0}, {1, 1.0}};
      config.block_tokens = 2;
      config.num_blocks = 8;
      config.seconds_per_step = 0.05;
      config.event_log = &events;
      std::vector<StreamDelta> deltas;
      const StreamCallback on_token = [&deltas](const StreamDelta& delta) {
        deltas.push_back(delta);
        return !(delta.request == 4 && delta.index == 1);
      };
      ServingFrontend frontend(net, config);
      Rng rng(999);
      const ServingResult result =
          frontend.Serve(requests, /*do_sample=*/false, /*temperature=*/1.0, rng, on_token);
      grid.BeginCase("chunk" + std::to_string(chunk) + "/" + AdmissionName(admission));
      PinRecords(&grid, result.records);
      PinReport(&grid, result.report);
      PinSchedulerStats(&grid, result.scheduler_stats);
      grid.Field("kv_high_water_blocks", result.kv_high_water_blocks);
      grid.Field("kv_leaked_blocks", result.kv_leaked_blocks);
      grid.Field("deltas", Series(deltas, [](const StreamDelta& delta) {
                   Fnv fnv;
                   fnv.Mix(static_cast<uint64_t>(delta.request));
                   fnv.Mix(static_cast<uint64_t>(delta.token));
                   fnv.Mix(Bits(static_cast<double>(delta.log_prob)));
                   fnv.Mix(static_cast<uint64_t>(delta.index));
                   fnv.Mix(Bits(delta.time));
                   return fnv.state;
                 }));
      grid.Field("events", Events(events.Snapshot()));
    }
  }
  ExpectPins(grid, kServingFrontendCases, kServingFrontendFields);
}

// --- Registry series ----------------------------------------------------------

std::vector<std::string> RegistryLines() {
  std::vector<std::string> lines;
  std::istringstream in(MetricsRegistry::Global().ToJsonLines());
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

double CounterValue(const std::string& name, const MetricLabels& labels) {
  return MetricsRegistry::Global().GetCounter(name, labels).Value();
}

// Runs `fn` once to register its series, then pins the name/type/labels
// of every series whose exported line changes across a second run, and
// each listed counter's increment over that run.
template <typename Fn>
void PinRegistryDelta(PinGrid* grid, const std::string& name, Fn&& fn,
                      const std::vector<std::pair<std::string, MetricLabels>>& counters) {
  fn();
  const std::vector<std::string> before = RegistryLines();
  std::vector<double> counts_before;
  for (const auto& [counter, labels] : counters) {
    counts_before.push_back(CounterValue(counter, labels));
  }
  fn();
  std::vector<std::string> changed;
  for (const std::string& line : RegistryLines()) {
    if (std::find(before.begin(), before.end(), line) == before.end()) {
      // The identity prefix: everything before the first value key.
      changed.push_back(line.substr(0, line.find(",\"", line.find("\"labels\":"))));
    }
  }
  grid->BeginCase(name);
  grid->Field("changed_series", Series(changed, [](const std::string& series) {
                Fnv fnv;
                for (char c : series) {
                  fnv.Mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
                }
                return fnv.state;
              }));
  for (size_t i = 0; i < counters.size(); ++i) {
    std::string key = counters[i].first;
    for (const auto& [label, value] : counters[i].second) {
      key += "/" + label + "=" + value;
    }
    grid->Field(key, CounterValue(counters[i].first, counters[i].second) - counts_before[i]);
  }
}

const std::vector<Pin> kRegistryCases = {
    {"rollout_engine", 0x03e87554d3b7a2a7ULL},
    {"serving_frontend", 0x95b42d7306804955ULL},
    {"sim_entry_points", 0xbc9fdc1b77fd5e8cULL},
};
const std::vector<Pin> kRegistryFields = {
    {"changed_series", 0xebbf81881c00c2d7ULL},
    {"rollout.steps_total/plane=data", 0xa8103432277de25fULL},
    {"rollout.admissions_total/plane=data", 0xa827fe322792187eULL},
    {"rollout.preemptions_total/plane=data", 0xa862443227c407b7ULL},
    {"kvcache.prefix_hits_total/plane=data", 0xa7fc5032276d68e9ULL},
    {"serving.requests_total/plane=data", 0xa84d603227b1db41ULL},
    {"serving.finished_total/plane=data", 0xa85af83227bd67e5ULL},
    {"serving.cancelled_total/plane=data", 0xa8c83832281aa685ULL},
    {"serving.expired_total/plane=data", 0xa8c7f832281a39c5ULL},
    {"serving.slo_attained_total/plane=serving/tenant=0", 0xa8ad083228038d3dULL},
    {"serving.goodput_tokens_total/plane=serving/tenant=0", 0xa8542c3227b7a193ULL},
    {"serving.slo_attained_total/plane=serving/tenant=1", 0xa884403227e0e751ULL},
    {"serving.goodput_tokens_total/plane=serving/tenant=1", 0xa809683227781c0dULL},
};

TEST(StepDriverGoldenTest, RegistrySeriesPinned) {
  PinGrid grid;
  const PolicyNet net = GoldenNet();
  const MetricLabels data{{"plane", "data"}};
  PinRegistryDelta(
      &grid, "rollout_engine",
      [&] {
        RolloutLimits limits;
        limits.max_new_tokens = 5;
        RolloutOptions options;
        options.mode = RolloutMode::kContinuous;
        options.block_tokens = 2;
        options.num_blocks = 9;
        options.enable_prefix_cache = true;
        const RolloutEngine engine(net, limits, options);
        Rng rng(5);
        engine.Run(GoldenPrompts(), /*do_sample=*/false, 1.0, rng);
      },
      {{"rollout.steps_total", data},
       {"rollout.admissions_total", data},
       {"rollout.preemptions_total", data},
       {"kvcache.prefix_hits_total", data}});
  const MetricLabels tenant0{{"plane", "serving"}, {"tenant", "0"}};
  const MetricLabels tenant1{{"plane", "serving"}, {"tenant", "1"}};
  PinRegistryDelta(
      &grid, "serving_frontend",
      [&] {
        ServingFrontendConfig config;
        config.block_tokens = 2;
        config.num_blocks = 8;
        config.seconds_per_step = 0.05;
        ServingFrontend frontend(net, config);
        Rng rng(5);
        frontend.Serve(GoldenRequests(), /*do_sample=*/false, 1.0, rng);
      },
      {{"serving.requests_total", data},
       {"serving.finished_total", data},
       {"serving.cancelled_total", data},
       {"serving.expired_total", data},
       {"serving.slo_attained_total", tenant0},
       {"serving.goodput_tokens_total", tenant0},
       {"serving.slo_attained_total", tenant1},
       {"serving.goodput_tokens_total", tenant1}});
  // The sim entry points emit nothing themselves.
  const PerfModel perf = GoldenPerf();
  PinRegistryDelta(
      &grid, "sim_entry_points",
      [&] {
        SimulateContinuousGeneration(perf, kGen, kDevices, GoldenNominal(),
                                     BudgetBytes(perf, 48), RolloutOptions{});
        SimulateServing(perf, kGen, kDevices, GoldenTrace(), BudgetBytes(perf, 40),
                        ServingPolicyConfig{});
      },
      {});
  ExpectPins(grid, kRegistryCases, kRegistryFields);
}

const std::vector<Pin> kGenerationGaugeCases = {
    {"ppo_7b_8gpu_continuous", 0x9d0750016c6fe69fULL},
};
const std::vector<Pin> kGenerationGaugeFields = {
    {"rollout.sim_steps", 0x746e0e344ee0566eULL},
    {"rollout.sim_preemptions", 0xa8c7f832281a39c5ULL},
    {"rollout.sim_max_running_batch", 0xa9a1383228d29745ULL},
    {"rollout.sim_kv_high_water_blocks", 0xfbb0bc349a8b87ebULL},
    {"rollout.sim_kv_peak_utilization", 0xf2d418210a35bd97ULL},
    {"rollout.sim_resumes", 0xa8c7f832281a39c5ULL},
    {"rollout.sim_recomputed_tokens", 0xa8c7f832281a39c5ULL},
    {"kvcache.prefix_hits_total", 0xa8c7f832281a39c5ULL},
    {"kvcache.shared_blocks", 0xa8c7f832281a39c5ULL},
    {"rollout.sim_ttft_p50_s", 0x8a4c61b3cfee3570ULL},
    {"rollout.sim_ttft_p90_s", 0xff20bff0f87228e4ULL},
    {"rollout.sim_ttft_p99_s", 0x77c68afc7add3f9bULL},
    {"rollout.sim_tpot_p50_s", 0xc01adf7844400198ULL},
    {"rollout.sim_tpot_p90_s", 0x5461c99beaced89cULL},
    {"rollout.sim_tpot_p99_s", 0x22d12eac308c09ceULL},
};

// ActorWorkerGroup::GenerationSeconds exports the sim rollout's stats as
// last-write-wins gauges.
TEST(StepDriverGoldenTest, GenerationSecondsGaugesPinned) {
  SystemBuildConfig config;
  config.num_gpus = 8;
  config.workload.global_batch = 64;
  config.workload.prompt_len = 256;
  config.workload.response_len = 256;
  config.rollout.mode = RolloutMode::kContinuous;
  config.rollout.prefill_chunk_tokens = 128;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  system.RunIteration();
  PinGrid grid;
  grid.BeginCase("ppo_7b_8gpu_continuous");
  const MetricLabels sim{{"plane", "sim"}};
  for (const char* name :
       {"rollout.sim_steps", "rollout.sim_preemptions", "rollout.sim_max_running_batch",
        "rollout.sim_kv_high_water_blocks", "rollout.sim_kv_peak_utilization",
        "rollout.sim_resumes", "rollout.sim_recomputed_tokens", "kvcache.prefix_hits_total",
        "kvcache.shared_blocks", "rollout.sim_ttft_p50_s", "rollout.sim_ttft_p90_s",
        "rollout.sim_ttft_p99_s", "rollout.sim_tpot_p50_s", "rollout.sim_tpot_p90_s",
        "rollout.sim_tpot_p99_s"}) {
    grid.Field(name, MetricsRegistry::Global().GetGauge(name, sim).Value());
  }
  ExpectPins(grid, kGenerationGaugeCases, kGenerationGaugeFields);
}

const std::vector<Pin> kRealIterationCases = {
    {"static", 0xc02de2ba4c79de44ULL},
    {"continuous", 0x497408dfcb9d7e3bULL},
};
const std::vector<Pin> kRealIterationFields = {
    {"mean_reward", 0xa400cc6d9488bf1dULL},
    {"toxicity_rate", 0x7f3df76bf8081f4dULL},
    {"coherence_rate", 0x9e5b9b0c1996a315ULL},
    {"actor_loss", 0x07f5ea393472d49fULL},
    {"critic_loss", 0xf05786a339303966ULL},
    {"mean_kl", 0x454e5d04a60a4216ULL},
    {"grad_norm", 0xf964e38180d64b3cULL},
    {"clip_fraction", 0x0c8210784d8af5a5ULL},
    {"rollout_preemptions", 0x0c8210784d8af5a5ULL},
};

// The actor's generation on the real data plane, static and continuous,
// seen through everything the sampled responses feed into.
TEST(StepDriverGoldenTest, RealComputeIterationsPinned) {
  PinGrid grid;
  for (const RolloutMode mode : {RolloutMode::kStatic, RolloutMode::kContinuous}) {
    SystemBuildConfig config;
    config.num_gpus = 8;
    config.real_compute = true;
    config.real_batch = 16;
    config.seed = 91;
    config.workload.global_batch = 64;
    config.rollout.mode = mode;
    config.rollout.block_tokens = 2;
    config.rollout.num_blocks = 24;
    RlhfSystemInstance system = BuildSystem(config);
    ASSERT_TRUE(system.feasible);
    grid.BeginCase(mode == RolloutMode::kStatic ? "static" : "continuous");
    for (int iteration = 0; iteration < 2; ++iteration) {
      const IterationMetrics metrics = system.RunIteration();
      grid.Field("mean_reward", metrics.mean_reward);
      grid.Field("toxicity_rate", metrics.toxicity_rate);
      grid.Field("coherence_rate", metrics.coherence_rate);
      grid.Field("actor_loss", metrics.actor_loss);
      grid.Field("critic_loss", metrics.critic_loss);
      grid.Field("mean_kl", metrics.mean_kl);
      grid.Field("grad_norm", metrics.grad_norm);
      grid.Field("clip_fraction", metrics.clip_fraction);
      grid.Field("rollout_preemptions", metrics.rollout_preemptions);
    }
  }
  ExpectPins(grid, kRealIterationCases, kRealIterationFields);
}

}  // namespace
}  // namespace hybridflow
