#include "src/serving/sim.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace hybridflow {

void FinishServing(const StepDriver& driver, ServingResult* result) {
  for (size_t i = 0; i < result->records.size(); ++i) {
    RequestRecord& record = result->records[i];
    const RolloutSequence& sequence = driver.sequences()[i];
    record.id = sequence.id;
    record.tenant = sequence.tenant;
    record.priority = sequence.priority;
    record.arrival = driver.arrival(sequence.id).arrival;
    record.ttft_deadline = sequence.ttft_deadline;
    record.tokens = sequence.generated;
    record.preemptions = sequence.preemptions;
    record.first_token_time = driver.first_token_time(record.id);
    const SequenceState state = sequence.state;
    HF_CHECK_MSG(state == SequenceState::kFinished || state == SequenceState::kCancelled ||
                     state == SequenceState::kExpired,
                 "serving request ended in a non-terminal state");
    record.outcome = state == SequenceState::kFinished    ? RequestOutcome::kFinished
                     : state == SequenceState::kCancelled ? RequestOutcome::kCancelled
                                                          : RequestOutcome::kExpired;
    record.end_time = state == SequenceState::kFinished ? driver.last_token_time(record.id)
                                                        : std::max(driver.now(), record.arrival);
    FinalizeRecord(&record, driver.last_token_time(record.id));
  }
  result->report = BuildServingReport(result->records);
  result->scheduler_stats = driver.scheduler().stats();
  result->kv_high_water_blocks = driver.kv().high_water_blocks();
  result->kv_leaked_blocks = driver.kv().used_blocks();
}

ServingSimResult SimulateServing(const PerfModel& perf, const GenParallelConfig& gen,
                                 const std::vector<DeviceId>& replica_devices,
                                 const std::vector<ArrivalRecord>& trace,
                                 double kv_budget_bytes, const ServingPolicyConfig& config) {
  ServingSimResult result;
  result.records.resize(trace.size());
  if (trace.empty()) {
    return result;
  }

  StepDriverConfig driver_config;
  driver_config.scheduler = ToSchedulerConfig(config);
  driver_config.kv = SimKvConfig(perf, gen, kv_budget_bytes, config.prefix_cache);
  std::vector<RolloutSequence> sequences(trace.size());
  std::vector<RequestArrival> arrivals(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const ArrivalRecord& record = trace[i];
    HF_CHECK_EQ(record.index, static_cast<int64_t>(i));
    HF_CHECK_GT(record.prompt_tokens, 0);
    HF_CHECK_GT(record.target_new_tokens, 0);
    RolloutSequence& sequence = sequences[i];
    sequence.prompt_tokens = record.prompt_tokens;
    sequence.target_new_tokens = record.target_new_tokens;
    sequence.tenant = record.tenant;
    sequence.priority = record.priority;
    sequence.ttft_deadline = record.ttft_deadline;
    if (config.prefix_cache) {
      sequence.block_hashes = SimPromptHashes(record.prompt_group, record.index,
                                              record.prompt_tokens, driver_config.kv.block_tokens);
    }
    arrivals[i].arrival = record.arrival;
    result.records[i].tpot_slo = record.tpot_slo;
  }
  StepDriver driver(driver_config, std::move(sequences), std::move(arrivals));
  SimStepBackend backend(perf, gen, replica_devices, /*serving_order=*/true);
  driver.Run(backend);
  FinishServing(driver, &result);
  result.sim_seconds = driver.now();
  return result;
}

}  // namespace hybridflow
