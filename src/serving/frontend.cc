#include "src/serving/frontend.h"

#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/serving/sim.h"

namespace hybridflow {

ServingFrontend::ServingFrontend(const PolicyNet& net, const ServingFrontendConfig& config)
    : net_(net), config_(config) {
  HF_CHECK_GT(config_.block_tokens, 0);
  HF_CHECK_GT(config_.seconds_per_step, 0.0);
}

ServingResult ServingFrontend::Serve(const std::vector<ServingRequest>& requests, bool do_sample,
                                     double temperature, Rng& rng,
                                     const StreamCallback& on_token) {
  // Aggregate counters; the per-tenant ones are resolved after the run.
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricLabels data{{"plane", "data"}};
  Counter& finished_total = registry.GetCounter("serving.finished_total", data);
  Counter& cancelled_total = registry.GetCounter("serving.cancelled_total", data);
  Counter& expired_total = registry.GetCounter("serving.expired_total", data);
  const size_t count = requests.size();
  ServingResult result;
  result.records.resize(count);
  registry.GetCounter("serving.requests_total", data).Increment(static_cast<double>(count));
  if (count == 0) {
    return result;
  }

  // KV geometry: num_blocks == 0 fits every request at full length.
  StepDriverConfig config;
  config.scheduler = ToSchedulerConfig(config_.scheduler);
  config.kv.block_tokens = config_.block_tokens;
  config.kv.num_blocks = config_.num_blocks;
  config.kv.enable_prefix_cache = config_.scheduler.prefix_cache;
  config.event_log = config_.event_log;
  DataStepBackend backend(net_, do_sample, temperature, config_.seconds_per_step,
                          /*eos_token=*/-1, on_token);
  std::vector<RolloutSequence> sequences(count);
  std::vector<RequestArrival> arrivals(count);
  for (size_t i = 0; i < count; ++i) {
    const ServingRequest& request = requests[i];
    HF_CHECK_EQ(request.id, static_cast<int64_t>(i));
    HF_CHECK_GT(request.max_new_tokens, 0);
    HF_CHECK(!request.prompt.empty());
    RolloutSequence& sequence = sequences[i];
    sequence.prompt_tokens = static_cast<int64_t>(request.prompt.size());
    sequence.target_new_tokens = request.max_new_tokens;
    sequence.tenant = request.tenant;
    sequence.priority = request.priority;
    sequence.ttft_deadline = request.ttft_deadline;
    if (config_.scheduler.prefix_cache) {
      sequence.block_hashes = PromptBlockHashes(request.prompt, config_.block_tokens);
    }
    arrivals[i] = {request.arrival, request.cancel_at, request.cancel_after_tokens};
    backend.AddSequence(request.prompt, rng.Fork(static_cast<uint64_t>(i)));
    result.records[i].tpot_slo = request.tpot_slo;
  }
  StepDriver driver(config, std::move(sequences), std::move(arrivals));
  driver.Run(backend);
  for (size_t i = 0; i < count; ++i) {
    result.records[i].response = std::move(backend.responses()[i]);
    result.records[i].log_probs = std::move(backend.log_probs()[i]);
  }
  FinishServing(driver, &result);

  finished_total.Increment(static_cast<double>(result.report.finished));
  cancelled_total.Increment(static_cast<double>(result.report.cancelled));
  expired_total.Increment(static_cast<double>(result.report.expired));
  for (const TenantServingStats& tenant : result.report.tenants) {
    const MetricLabels labels = {{"plane", "serving"},
                                 {"tenant", std::to_string(tenant.tenant)}};
    registry.GetCounter("serving.slo_attained_total", labels)
        .Increment(static_cast<double>(tenant.slo_attained));
    registry.GetCounter("serving.goodput_tokens_total", labels)
        .Increment(static_cast<double>(tenant.goodput_tokens));
    QuantileHistogram& ttft_us = registry.GetQuantileHistogram(
        "rollout.ttft_us", QuantileHistogram::kDefaultRelativeError, labels);
    QuantileHistogram& tpot_us = registry.GetQuantileHistogram(
        "rollout.tpot_us", QuantileHistogram::kDefaultRelativeError, labels);
    for (const RequestRecord& record : result.records) {
      if (record.tenant != tenant.tenant) {
        continue;
      }
      if (record.tokens >= 1) {
        ttft_us.Observe(record.ttft * 1e6);  // Virtual seconds -> micros.
      }
      if (record.tokens >= 2) {
        tpot_us.Observe(record.tpot * 1e6);
      }
    }
  }
  return result;
}

}  // namespace hybridflow
