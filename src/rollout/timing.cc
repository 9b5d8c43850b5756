#include "src/rollout/timing.h"

#include <utility>

#include "src/common/check.h"
#include "src/rollout/step_driver.h"

namespace hybridflow {

RolloutSimResult SimulateContinuousGeneration(const PerfModel& perf,
                                              const GenParallelConfig& gen,
                                              const std::vector<DeviceId>& replica_devices,
                                              const std::vector<NominalSequence>& sequences,
                                              double kv_budget_bytes,
                                              const RolloutOptions& options) {
  RolloutSimResult result;
  result.stats.sequences = static_cast<int64_t>(sequences.size());
  if (sequences.empty()) {
    return result;
  }

  StepDriverConfig config;
  config.scheduler = ToSchedulerConfig(options);
  config.kv = SimKvConfig(perf, gen, kv_budget_bytes, options.enable_prefix_cache);
  // Lifecycle events always feed the latency digests; they only outlive
  // this call when the caller provides a sink.
  SeqEventLog local_events;
  config.event_log = options.sim_event_log != nullptr ? options.sim_event_log : &local_events;
  std::vector<RolloutSequence> states(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    HF_CHECK_GT(sequences[i].prompt_tokens, 0);
    HF_CHECK_GE(sequences[i].response_tokens, 0);
    RolloutSequence& state = states[i];
    state.prompt_tokens = sequences[i].prompt_tokens;
    state.target_new_tokens = sequences[i].response_tokens;
    if (options.enable_prefix_cache) {
      state.block_hashes = SimPromptHashes(sequences[i].prompt_group, static_cast<int64_t>(i),
                                           state.prompt_tokens, config.kv.block_tokens);
    }
  }
  StepDriver driver(config, std::move(states));
  SimStepBackend backend(perf, gen, replica_devices);
  driver.Run(backend);

  result.time = backend.time();
  result.max_step_seconds = backend.max_step_seconds();
  result.stats = driver.Stats();
  result.latency = SummarizeSeqLatencies(DeriveSeqLatencies(
      config.event_log == &local_events ? local_events.Snapshot()
                                        : config.event_log->SnapshotRun(driver.event_run()),
      /*wall=*/false));
  return result;
}

}  // namespace hybridflow
