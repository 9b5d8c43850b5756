#include "src/rollout/engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/rollout/step_driver.h"

namespace hybridflow {

RolloutSchedulerConfig ToSchedulerConfig(const RolloutOptions& options) {
  RolloutSchedulerConfig config;
  config.policy = options.policy;
  config.reserve_tokens = options.reserve_tokens;
  config.max_running = options.max_running;
  config.prefill_chunk_tokens = options.prefill_chunk_tokens;
  config.reserve_full_length = options.reserve_full_length;
  return config;
}

void RolloutStats::Merge(const RolloutStats& other) {
  steps += other.steps;
  sequences += other.sequences;
  admissions += other.admissions;
  preemptions += other.preemptions;
  max_running_batch = std::max(max_running_batch, other.max_running_batch);
  queue_wait_steps_total += other.queue_wait_steps_total;
  queue_wait_steps_max = std::max(queue_wait_steps_max, other.queue_wait_steps_max);
  kv_high_water_blocks = std::max(kv_high_water_blocks, other.kv_high_water_blocks);
  kv_peak_utilization = std::max(kv_peak_utilization, other.kv_peak_utilization);
  prefill_chunks += other.prefill_chunks;
  max_prefill_tokens_step = std::max(max_prefill_tokens_step, other.max_prefill_tokens_step);
  resumes += other.resumes;
  recomputed_tokens += other.recomputed_tokens;
  prefix_skipped_tokens += other.prefix_skipped_tokens;
  shared_blocks_high_water = std::max(shared_blocks_high_water, other.shared_blocks_high_water);
}

void RolloutStatsCollector::Add(const RolloutStats& stats) {
  MutexLock lock(mutex_);
  total_.Merge(stats);
}

RolloutStats RolloutStatsCollector::Snapshot() const {
  MutexLock lock(mutex_);
  return total_;
}

RolloutEngine::RolloutEngine(const PolicyNet& net, const RolloutLimits& limits,
                             const RolloutOptions& options)
    : net_(net), limits_(limits), options_(options) {
  HF_CHECK_GT(options_.block_tokens, 0);
  HF_CHECK_GE(limits_.max_new_tokens, 0);
}

RolloutShardResult RolloutEngine::Run(const std::vector<std::vector<int64_t>>& prompts,
                                      bool do_sample, double temperature, Rng& rng) const {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricLabels data{{"plane", "data"}};
  Counter& steps_total = registry.GetCounter("rollout.steps_total", data);
  Counter& admissions_total = registry.GetCounter("rollout.admissions_total", data);
  Counter& preemptions_total = registry.GetCounter("rollout.preemptions_total", data);
  Histogram& queue_wait_steps =
      registry.GetHistogram("rollout.queue_wait_steps", ExponentialBuckets(1, 2, 10), data);
  Histogram& running_batch =
      registry.GetHistogram("rollout.running_batch", ExponentialBuckets(1, 2, 10), data);
  Histogram& kv_utilization =
      registry.GetHistogram("rollout.kv_utilization", LinearBuckets(0.1, 0.1, 10), data);
  QuantileHistogram& ttft_us = registry.GetQuantileHistogram(
      "rollout.ttft_us", QuantileHistogram::kDefaultRelativeError, data);
  QuantileHistogram& tpot_us = registry.GetQuantileHistogram(
      "rollout.tpot_us", QuantileHistogram::kDefaultRelativeError, data);
  Counter& prefix_hits_total = registry.GetCounter("kvcache.prefix_hits_total", data);
  Gauge& shared_blocks = registry.GetGauge("kvcache.shared_blocks", data);
  const size_t batch = prompts.size();
  RolloutShardResult result;
  result.responses.resize(batch);
  result.log_probs.resize(batch);
  result.stats.sequences = static_cast<int64_t>(batch);
  if (batch == 0 || limits_.max_new_tokens == 0) {
    return result;
  }

  // KV geometry: num_blocks == 0 fits the whole shard at full length.
  StepDriverConfig config;
  config.scheduler = ToSchedulerConfig(options_);
  config.kv.block_tokens = options_.block_tokens;
  config.kv.num_blocks = options_.num_blocks;
  config.kv.enable_prefix_cache = options_.enable_prefix_cache;
  config.event_log = options_.event_log;
  config.on_step = [&](const StepPlan& plan, double utilization) {
    running_batch.Observe(static_cast<double>(plan.rows()));
    kv_utilization.Observe(utilization);
  };
  std::vector<RolloutSequence> sequences(batch);
  DataStepBackend backend(net_, do_sample, temperature, /*seconds_per_step=*/0.0,
                          limits_.use_eos ? limits_.eos_token : -1);
  for (size_t i = 0; i < batch; ++i) {
    RolloutSequence& sequence = sequences[i];
    sequence.prompt_tokens = static_cast<int64_t>(prompts[i].size());
    sequence.target_new_tokens = limits_.max_new_tokens;
    if (options_.enable_prefix_cache) {
      // Content identity for the prefix cache: identical prompt prefixes
      // (e.g. group sampling's n copies of one prompt) share blocks.
      sequence.block_hashes = PromptBlockHashes(prompts[i], options_.block_tokens);
    }
    backend.AddSequence(prompts[i], rng.Fork(static_cast<uint64_t>(i)));
  }
  StepDriver driver(config, std::move(sequences));
  driver.Run(backend);

  result.responses = std::move(backend.responses());
  result.log_probs = std::move(backend.log_probs());
  result.stats = driver.Stats();
  prefix_hits_total.Increment(static_cast<double>(driver.kv().prefix_hit_tokens_total()));
  shared_blocks.Set(static_cast<double>(result.stats.shared_blocks_high_water));
  if (options_.event_log != nullptr) {
    // Wall-clock per-sequence latency distributions for this shard's run.
    for (const SeqLatency& latency : DeriveSeqLatencies(
             options_.event_log->SnapshotRun(driver.event_run()), /*wall=*/true)) {
      if (latency.tokens >= 1) {
        ttft_us.Observe(latency.ttft);
      }
      if (latency.tokens >= 2) {
        tpot_us.Observe(latency.tpot);
      }
    }
  }
  for (const RolloutSequence& sequence : driver.sequences()) {
    HF_CHECK(sequence.state == SequenceState::kFinished);
    queue_wait_steps.Observe(static_cast<double>(
        std::max<int64_t>(sequence.first_admit_step - sequence.enqueue_step, 0)));
  }
  steps_total.Increment(static_cast<double>(result.stats.steps));
  admissions_total.Increment(static_cast<double>(result.stats.admissions));
  preemptions_total.Increment(static_cast<double>(result.stats.preemptions));
  return result;
}

}  // namespace hybridflow
