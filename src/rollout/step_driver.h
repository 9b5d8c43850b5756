// StepDriver: the one continuous-batching step loop (docs/ROLLOUT.md).
//
// Rollout and serving run on both planes through this loop: 2 request
// sources x 2 plane backends.
//   * Source: a closed batch (every sequence present at t=0, nothing
//     cancels) or an arrival list (requests join as the clock passes their
//     arrival, replayed in stable arrival order, with client cancellation
//     and, via the scheduler, TTFT expiry). The closed batch is the arrival
//     list with every arrival at 0.
//   * Backend: data (PolicyNet::Forward + SampleLogitsRow over per-sequence
//     contexts and forked RNGs) or sim (PerfModel prefill/decode/comm step
//     cost).
// The driver owns the KV geometry, the RolloutSequence table and the
// RolloutScheduler. Per step it begins a plan, samples the KV residency,
// charges the backend's step cost to the clock, lets the backend emit the
// step's tokens at the step-end clock, commits, then admits arrivals and
// applies cancellations. RolloutEngine::Run, ServingFrontend::Serve,
// SimulateContinuousGeneration and SimulateServing are thin adapters.
#ifndef SRC_ROLLOUT_STEP_DRIVER_H_
#define SRC_ROLLOUT_STEP_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/policy_net.h"
#include "src/perf/perf_model.h"
#include "src/rollout/engine.h"

namespace hybridflow {

// One streamed token, delivered to the client callback as it is committed.
struct StreamDelta {
  int64_t request = 0;
  int64_t token = 0;
  float log_prob = 0.0f;
  int64_t index = 0;  // 0-based position in the response.
  double time = 0.0;  // Serving-clock commit instant.
};

// Return false to cancel the request (takes effect at the step boundary;
// the delivered token is kept). The data plane invokes this inline on the
// engine thread, so callbacks must be fast and must not re-enter the
// frontend.
using StreamCallback = std::function<bool(const StreamDelta&)>;

// When a request reaches the driver, and when its client gives up on it.
struct RequestArrival {
  double arrival = 0.0;
  // Cancel at this absolute clock instant (<= 0: never); at-or-before
  // arrival means the request is never accepted.
  double cancel_at = 0.0;
  int64_t cancel_after_tokens = 0;  // Cancel once this many streamed (0: never).
};

struct StepDriverConfig {
  RolloutSchedulerConfig scheduler;
  // block_tokens, bytes_per_token and enable_prefix_cache are used as
  // given. num_blocks is the replica's budget, raised to fit the largest
  // sequence alone (the scheduler's progress contract); 0 sizes the pool
  // to fit every sequence at full length.
  KvBlockConfig kv;
  // Lifecycle event sink (src/obs/seq_events.h); null disables recording.
  SeqEventLog* event_log = nullptr;
  // Called right after every BeginStep with the plan and the KV
  // utilization; may be empty.
  std::function<void(const StepPlan&, double utilization)> on_step;
};

// What one engine step costs and emits on a plane.
class StepBackend {
 public:
  virtual ~StepBackend() = default;
  // Seconds `plan` advances the clock (an empty plan included). A plan's
  // emitting rows are its completing prefill chunks, then its decode rows:
  // partial prefill chunks do compute but emit nothing yet.
  virtual double StepSeconds(const StepPlan& plan,
                             const std::vector<RolloutSequence>& sequences) = 0;
  // Produces one token for each emitting row of `plan` at the step-end
  // clock `now`. Appends rows that emitted EOS to `eos_finished` and rows
  // whose client refused the token to `refused`. The sim plane emits
  // nothing.
  virtual void Emit(const StepPlan& /*plan*/, double /*now*/,
                    std::vector<int64_t>* /*eos_finished*/, std::vector<int64_t>* /*refused*/) {}
  // True if Emit may refuse tokens (a client callback is attached).
  virtual bool MayRefuse() const { return false; }
};

class StepDriver {
 public:
  // Numbers the sequences: `sequences[i].id` becomes i. `arrivals` is
  // empty (closed batch) or has one entry per sequence. A sequence with
  // target_new_tokens == 0 finishes on arrival without being scheduled.
  StepDriver(const StepDriverConfig& config, std::vector<RolloutSequence> sequences,
             std::vector<RequestArrival> arrivals = {});
  StepDriver(const StepDriver&) = delete;
  StepDriver& operator=(const StepDriver&) = delete;

  // Runs until every sequence is terminal and every arrival was admitted.
  void Run(StepBackend& backend);

  // Rollout-style digest: scheduler counters, KV high-water and sharing,
  // peak utilization, and queue waits of the scheduled sequences.
  RolloutStats Stats() const;

  const std::vector<RolloutSequence>& sequences() const { return sequences_; }
  const RolloutScheduler& scheduler() const { return scheduler_; }
  const KvBlockManager& kv() const { return kv_; }
  int64_t event_run() const { return event_run_; }
  double now() const { return now_; }  // Clock at drain.
  const RequestArrival& arrival(int64_t id) const { return arrivals_[static_cast<size_t>(id)]; }
  // Step-end clock of a sequence's first and last emitted token (0 if none).
  double first_token_time(int64_t id) const { return first_token_[static_cast<size_t>(id)]; }
  double last_token_time(int64_t id) const { return last_token_[static_cast<size_t>(id)]; }

 private:
  // Enqueues every pending arrival at or before now_.
  void AdmitArrivals();
  // Applies cancellation schedules and refusals between steps.
  void ApplyCancellations();
  // `used_blocks` over the pool size (0 for an empty pool).
  double Utilization(int64_t used_blocks) const;

  StepDriverConfig config_;
  std::vector<RolloutSequence> sequences_;
  std::vector<RequestArrival> arrivals_;
  KvBlockManager kv_;
  RolloutScheduler scheduler_;
  int64_t event_run_ = 0;
  std::vector<int64_t> by_arrival_;  // Stable arrival order.
  size_t next_arrival_ = 0;
  bool may_cancel_ = false;
  std::vector<bool> client_cancelled_;
  std::vector<double> first_token_;
  std::vector<double> last_token_;
  double now_ = 0.0;
  // Peak used blocks right after BeginStep; Stats() turns it into
  // the peak utilization (division is monotone, so this is exact).
  int64_t peak_used_blocks_ = 0;
};

// Data-plane backend: one batched PolicyNet forward per step over each
// emitting row's rolling context, one SampleLogitsRow draw per row from the
// row's own forked RNG stream. The per-row forward is independent of batch
// composition, so greedy outputs are schedule-invariant.
class DataStepBackend : public StepBackend {
 public:
  // `seconds_per_step` is the fixed clock advance of every step (0 leaves
  // the clock alone). `eos_token` < 0 disables EOS. `on_token`, if set,
  // streams every emitted token at the step-end clock.
  DataStepBackend(const PolicyNet& net, bool do_sample, double temperature,
                  double seconds_per_step, int64_t eos_token = -1,
                  StreamCallback on_token = nullptr);

  // Registers the next sequence (ids in order) with its prompt and stream.
  void AddSequence(const std::vector<int64_t>& prompt, Rng rng);

  double StepSeconds(const StepPlan& plan,
                     const std::vector<RolloutSequence>& sequences) override;
  void Emit(const StepPlan& plan, double now, std::vector<int64_t>* eos_finished,
            std::vector<int64_t>* refused) override;
  bool MayRefuse() const override { return on_token_ != nullptr; }

  std::vector<std::vector<int64_t>>& responses() { return responses_; }
  std::vector<std::vector<float>>& log_probs() { return log_probs_; }

 private:
  const PolicyNet& net_;
  bool do_sample_;
  double temperature_;
  double seconds_per_step_;
  int64_t eos_token_;
  StreamCallback on_token_;
  std::vector<int64_t> rows_;  // The step's emitting rows.
  std::vector<IncrementalContext> contexts_;
  std::vector<Rng> rngs_;
  std::vector<std::vector<int64_t>> responses_;
  std::vector<std::vector<float>> log_probs_;
};

// Sim-plane backend: charges each step the PerfModel prefill time of its
// prefill chunks plus, when rows emit, the decode and TP-comm time over
// their live contexts. Recompute-on-resume is charged as prefill.
class SimStepBackend : public StepBackend {
 public:
  // The step cost is prefill + (decode + comm); `serving_order` sums it as
  // (prefill + decode) + comm instead. The two differ only in the last
  // bit, and each sim entry point keeps the order its outputs were pinned
  // with.
  SimStepBackend(const PerfModel& perf, const GenParallelConfig& gen,
                 const std::vector<DeviceId>& replica_devices, bool serving_order = false);

  double StepSeconds(const StepPlan& plan,
                     const std::vector<RolloutSequence>& sequences) override;

  const GenTimeBreakdown& time() const { return time_; }
  double max_step_seconds() const { return max_step_seconds_; }

 private:
  const PerfModel& perf_;
  const GenParallelConfig& gen_;
  const std::vector<DeviceId>& replica_devices_;
  bool serving_order_;
  std::vector<int64_t> prefill_tokens_;
  GenTimeBreakdown time_;
  double max_step_seconds_ = 0.0;
};

// Sim-plane KV pool of one replica, shared by both sim entry points:
// 16-token blocks of sharded per-token KV bytes (PerfModel::GenerateTime's
// wave model), as many as `kv_budget_bytes` holds per GPU.
KvBlockConfig SimKvConfig(const PerfModel& perf, const GenParallelConfig& gen,
                          double kv_budget_bytes, bool prefix_cache);

// Count-based content identity of a sim-plane prompt: sequences with the
// same non-negative `prompt_group` hash equal and share. A unique prompt
// (group < 0) still hashes, in its own per-`id` namespace disjoint from the
// groups, because the data plane hashes every prompt's tokens: a preempted
// victim's retained prompt blocks are prefix hits on resume, so recompute
// covers only the response tail.
std::vector<uint64_t> SimPromptHashes(int64_t prompt_group, int64_t id, int64_t prompt_tokens,
                                      int64_t block_tokens);

}  // namespace hybridflow

#endif  // SRC_ROLLOUT_STEP_DRIVER_H_
