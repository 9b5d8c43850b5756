#include "src/rollout/step_driver.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/check.h"

namespace hybridflow {
namespace {

// The KV sizing of every entry point: honor the budget but always fit the
// largest sequence alone at full length; no budget fits them all.
KvBlockConfig SizedKvConfig(KvBlockConfig kv, const std::vector<RolloutSequence>& sequences) {
  int64_t fit_all = 0;
  int64_t fit_largest = 0;
  for (const RolloutSequence& sequence : sequences) {
    const int64_t full = sequence.prompt_tokens + sequence.target_new_tokens;
    const int64_t blocks = (full + kv.block_tokens - 1) / kv.block_tokens;
    fit_all += blocks;
    fit_largest = std::max(fit_largest, blocks);
  }
  kv.num_blocks = kv.num_blocks > 0 ? std::max(kv.num_blocks, fit_largest) : fit_all;
  return kv;
}

}  // namespace

StepDriver::StepDriver(const StepDriverConfig& config, std::vector<RolloutSequence> sequences,
                       std::vector<RequestArrival> arrivals)
    : config_(config),
      sequences_(std::move(sequences)),
      arrivals_(std::move(arrivals)),
      kv_(SizedKvConfig(config.kv, sequences_)),
      scheduler_(config.scheduler, &kv_, &sequences_) {
  const size_t count = sequences_.size();
  if (arrivals_.empty()) {
    arrivals_.resize(count);  // Closed batch: everything arrives at t=0.
  }
  HF_CHECK_EQ(arrivals_.size(), count);
  by_arrival_.resize(count);
  std::iota(by_arrival_.begin(), by_arrival_.end(), 0);
  for (size_t i = 0; i < count; ++i) {
    sequences_[i].id = static_cast<int64_t>(i);
    may_cancel_ = may_cancel_ || arrivals_[i].cancel_at > 0.0 ||
                  arrivals_[i].cancel_after_tokens > 0;
  }
  std::stable_sort(by_arrival_.begin(), by_arrival_.end(), [this](int64_t a, int64_t b) {
    return arrivals_[static_cast<size_t>(a)].arrival < arrivals_[static_cast<size_t>(b)].arrival;
  });
  client_cancelled_.assign(count, false);
  first_token_.assign(count, 0.0);
  last_token_.assign(count, 0.0);
  // A distinct run id per driver keeps concurrent shards apart in a shared log.
  event_run_ = config_.event_log != nullptr ? config_.event_log->BeginRun() : 0;
  scheduler_.SetEventLog(config_.event_log, event_run_);
}

double StepDriver::Utilization(int64_t used_blocks) const {
  const int64_t num_blocks = kv_.config().num_blocks;
  return num_blocks > 0 ? static_cast<double>(used_blocks) / static_cast<double>(num_blocks)
                        : 0.0;
}

void StepDriver::AdmitArrivals() {
  while (next_arrival_ < by_arrival_.size() &&
         arrivals_[static_cast<size_t>(by_arrival_[next_arrival_])].arrival <= now_) {
    const size_t idx = static_cast<size_t>(by_arrival_[next_arrival_++]);
    const RequestArrival& arrival = arrivals_[idx];
    RolloutSequence& sequence = sequences_[idx];
    if (arrival.cancel_at > 0.0 && arrival.cancel_at <= arrival.arrival) {
      // The client hung up before the request was accepted.
      sequence.state = SequenceState::kCancelled;
    } else if (sequence.target_new_tokens == 0) {
      sequence.state = SequenceState::kFinished;
    } else {
      scheduler_.Enqueue(sequence.id);
    }
  }
}

void StepDriver::ApplyCancellations() {
  if (!may_cancel_) {
    return;  // Nothing can cancel: no per-step scan.
  }
  // Runs right after AdmitArrivals, so a request has arrived iff its
  // arrival is at or before now_.
  for (size_t i = 0; i < sequences_.size(); ++i) {
    const RolloutSequence& sequence = sequences_[i];
    const RequestArrival& arrival = arrivals_[i];
    if (arrival.arrival > now_ || (sequence.state != SequenceState::kWaiting &&
                                   sequence.state != SequenceState::kPrefill &&
                                   sequence.state != SequenceState::kDecode)) {
      continue;  // Not yet arrived, terminal, or preempted (until resumed).
    }
    const bool timed_out = arrival.cancel_at > 0.0 && arrival.cancel_at <= now_;
    const bool streamed_enough =
        arrival.cancel_after_tokens > 0 && sequence.generated >= arrival.cancel_after_tokens;
    if (timed_out || streamed_enough || client_cancelled_[i]) {
      scheduler_.Cancel(sequence.id, /*expired=*/false);
      client_cancelled_[i] = true;
    }
  }
}

void StepDriver::Run(StepBackend& backend) {
  may_cancel_ = may_cancel_ || backend.MayRefuse();
  std::vector<int64_t> eos_finished;
  std::vector<int64_t> refused;
  AdmitArrivals();
  while (scheduler_.HasWork() || next_arrival_ < by_arrival_.size()) {
    if (!scheduler_.HasWork()) {
      // Idle gap: jump the clock to the next arrival.
      now_ = std::max(now_, arrivals_[static_cast<size_t>(by_arrival_[next_arrival_])].arrival);
      AdmitArrivals();
      ApplyCancellations();
      if (!scheduler_.HasWork()) {
        continue;
      }
    }
    // Admission/preemption events carry the step-start clock; the commit's
    // token events carry the step-end clock.
    scheduler_.SetSimNow(now_);
    const StepPlan plan = scheduler_.BeginStep();

    // KV pressure right after admission is the step's peak residency.
    peak_used_blocks_ = std::max(peak_used_blocks_, kv_.used_blocks());
    if (config_.on_step) {
      config_.on_step(plan, Utilization(kv_.used_blocks()));
    }

    now_ += backend.StepSeconds(plan, sequences_);
    if (plan.empty()) {
      // Expiry drained the remaining work: nothing runs or commits.
      AdmitArrivals();
      continue;
    }
    scheduler_.SetSimNow(now_);
    // A first token comes only from a completing prefill chunk: decode rows
    // have emitted before.
    for (const PrefillChunk& chunk : plan.prefill) {
      if (chunk.completes) {
        const size_t idx = static_cast<size_t>(chunk.id);
        if (sequences_[idx].generated == 0) {
          first_token_[idx] = now_;
        }
        last_token_[idx] = now_;
      }
    }
    for (int64_t id : plan.decode) {
      last_token_[static_cast<size_t>(id)] = now_;
    }
    eos_finished.clear();
    refused.clear();
    backend.Emit(plan, now_, &eos_finished, &refused);
    for (int64_t id : refused) {
      client_cancelled_[static_cast<size_t>(id)] = true;  // Applied at the step boundary.
    }
    scheduler_.CommitStep(plan, eos_finished);
    AdmitArrivals();
    ApplyCancellations();
  }
}

RolloutStats StepDriver::Stats() const {
  const RolloutSchedulerStats& scheduler_stats = scheduler_.stats();
  RolloutStats stats;
  stats.sequences = static_cast<int64_t>(sequences_.size());
  stats.steps = scheduler_stats.steps;
  stats.admissions = scheduler_stats.admissions;
  stats.preemptions = scheduler_stats.preemptions;
  stats.max_running_batch = scheduler_stats.max_running;
  stats.prefill_chunks = scheduler_stats.prefill_chunks;
  stats.max_prefill_tokens_step = scheduler_stats.max_prefill_tokens_step;
  stats.resumes = scheduler_stats.resumes;
  stats.recomputed_tokens = scheduler_stats.recomputed_tokens;
  stats.prefix_skipped_tokens = scheduler_stats.prefix_skipped_tokens;
  stats.kv_high_water_blocks = kv_.high_water_blocks();
  stats.kv_peak_utilization = Utilization(peak_used_blocks_);
  stats.shared_blocks_high_water = kv_.shared_blocks_high_water();
  for (const RolloutSequence& sequence : sequences_) {
    if (sequence.target_new_tokens == 0) {
      continue;
    }
    const int64_t wait = std::max<int64_t>(sequence.first_admit_step - sequence.enqueue_step, 0);
    stats.queue_wait_steps_total += wait;
    stats.queue_wait_steps_max = std::max(stats.queue_wait_steps_max, wait);
  }
  return stats;
}

DataStepBackend::DataStepBackend(const PolicyNet& net, bool do_sample, double temperature,
                                 double seconds_per_step, int64_t eos_token,
                                 StreamCallback on_token)
    : net_(net),
      do_sample_(do_sample),
      temperature_(temperature),
      seconds_per_step_(seconds_per_step),
      eos_token_(eos_token),
      on_token_(std::move(on_token)) {}

void DataStepBackend::AddSequence(const std::vector<int64_t>& prompt, Rng rng) {
  contexts_.emplace_back(prompt, net_.config().context_window);
  rngs_.push_back(std::move(rng));
  responses_.emplace_back();
  log_probs_.emplace_back();
}

double DataStepBackend::StepSeconds(const StepPlan& /*plan*/,
                                    const std::vector<RolloutSequence>& /*sequences*/) {
  return seconds_per_step_;
}

void DataStepBackend::Emit(const StepPlan& plan, double now, std::vector<int64_t>* eos_finished,
                           std::vector<int64_t>* refused) {
  rows_.clear();
  for (const PrefillChunk& chunk : plan.prefill) {
    if (chunk.completes) {
      rows_.push_back(chunk.id);
    }
  }
  rows_.insert(rows_.end(), plan.decode.begin(), plan.decode.end());
  if (rows_.empty()) {
    return;
  }
  std::vector<std::vector<int64_t>> step_contexts;
  step_contexts.reserve(rows_.size());
  for (int64_t id : rows_) {
    step_contexts.push_back(contexts_[static_cast<size_t>(id)].tokens());
  }
  const Tensor logits = net_.Forward(step_contexts);
  for (size_t a = 0; a < rows_.size(); ++a) {
    const int64_t id = rows_[a];
    const size_t idx = static_cast<size_t>(id);
    float log_prob = 0.0f;
    const int64_t token = SampleLogitsRow(logits, static_cast<int64_t>(a), temperature_,
                                          do_sample_, rngs_[idx], &log_prob);
    responses_[idx].push_back(token);
    log_probs_[idx].push_back(log_prob);
    contexts_[idx].Push(token);
    if (eos_token_ >= 0 && token == eos_token_) {
      eos_finished->push_back(id);
    }
    if (on_token_ != nullptr &&
        !on_token_({id, token, log_prob, static_cast<int64_t>(responses_[idx].size()) - 1, now})) {
      refused->push_back(id);
    }
  }
}

SimStepBackend::SimStepBackend(const PerfModel& perf, const GenParallelConfig& gen,
                               const std::vector<DeviceId>& replica_devices,
                               bool serving_order)
    : perf_(perf), gen_(gen), replica_devices_(replica_devices), serving_order_(serving_order) {}

double SimStepBackend::StepSeconds(const StepPlan& plan,
                                   const std::vector<RolloutSequence>& sequences) {
  // Prefill: (re)admitted contexts are computed from scratch, so
  // recompute-on-resume charges prompt + kept response tokens again. Under
  // chunked prefill each chunk charges only its own tokens.
  double step_seconds = 0.0;
  if (!plan.prefill.empty()) {
    prefill_tokens_.clear();
    for (const PrefillChunk& chunk : plan.prefill) {
      prefill_tokens_.push_back(chunk.tokens);
    }
    const double prefill_seconds = perf_.PrefillStepTime(gen_, replica_devices_, prefill_tokens_);
    time_.prefill_seconds += prefill_seconds;
    step_seconds += prefill_seconds;
  }

  // Decode: rows that caught up with their context emit one token against
  // its live KV; partial chunks do not run the decode step yet.
  const int64_t emitting = plan.EmittingRows();
  if (emitting > 0) {
    int64_t context_tokens = 0;
    for (const PrefillChunk& chunk : plan.prefill) {
      if (chunk.completes) {
        context_tokens += sequences[static_cast<size_t>(chunk.id)].kv_tokens;
      }
    }
    for (int64_t id : plan.decode) {
      context_tokens += sequences[static_cast<size_t>(id)].kv_tokens;
    }
    const double decode_seconds =
        perf_.DecodeStepTime(gen_, replica_devices_, emitting, context_tokens);
    const double comm_seconds = perf_.DecodeCommStepTime(gen_, replica_devices_, emitting);
    time_.decode_seconds += decode_seconds;
    time_.comm_seconds += comm_seconds;
    step_seconds = serving_order_ ? step_seconds + decode_seconds + comm_seconds
                                  : step_seconds + (decode_seconds + comm_seconds);
  }
  max_step_seconds_ = std::max(max_step_seconds_, step_seconds);
  return step_seconds;
}

KvBlockConfig SimKvConfig(const PerfModel& perf, const GenParallelConfig& gen,
                          double kv_budget_bytes, bool prefix_cache) {
  KvBlockConfig kv;
  kv.block_tokens = 16;
  kv.bytes_per_token = perf.KvBytesPerTokenPerGpu(gen);
  kv.enable_prefix_cache = prefix_cache;
  // At least one block, so the driver's fit-largest floor applies.
  const double block_bytes = static_cast<double>(kv.block_tokens) * kv.bytes_per_token;
  kv.num_blocks = std::max<int64_t>(
      block_bytes > 0.0 ? static_cast<int64_t>(kv_budget_bytes / block_bytes) : 1, 1);
  return kv;
}

std::vector<uint64_t> SimPromptHashes(int64_t prompt_group, int64_t id, int64_t prompt_tokens,
                                      int64_t block_tokens) {
  const int64_t group = prompt_group >= 0 ? prompt_group : -id - 1;
  return GroupBlockHashes(group, prompt_tokens / block_tokens);
}

}  // namespace hybridflow
