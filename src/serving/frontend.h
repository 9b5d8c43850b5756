// ServingFrontend: the data-plane serving entry point (docs/SERVING.md).
//
// Maps ServingRequests onto RolloutSequences and runs them through the
// StepDriver (src/rollout/step_driver.h) with an arrival-list source and
// the data backend over the real toy PolicyNet: per step it injects newly
// arrived requests, applies client cancellations and TTFT expiry, composes
// a mixed prefill+decode batch via RolloutScheduler, runs one forward, and
// streams each committed token to the client callback.
//
// The serving clock is *virtual*: every step, an empty one included,
// advances it by seconds_per_step, and arrivals/deadlines/cancellations
// are interpreted on that clock, so runs are fully deterministic — no
// wall-time dependence. The per-row forward is independent of batch
// composition and sampling uses per-request forked RNG streams, so greedy
// responses of uncancelled requests are bitwise-identical across admission
// policies, preemption, cancellation, and expiry of *other* requests (the
// rollout engine's equivalence contract, extended to the serving surface).
#ifndef SRC_SERVING_FRONTEND_H_
#define SRC_SERVING_FRONTEND_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/policy_net.h"
#include "src/rollout/step_driver.h"
#include "src/serving/request.h"

namespace hybridflow {

struct ServingFrontendConfig {
  // Admission and the prefix cache (scheduler.prefix_cache: prompts hash
  // by content, so identical prefixes share blocks and skip prefill).
  ServingPolicyConfig scheduler;
  // Data-plane KV geometry (toy scale); num_blocks == 0 auto-sizes to fit
  // every request at full length (no capacity pressure).
  int64_t block_tokens = 4;
  int64_t num_blocks = 0;
  // Virtual seconds one engine step advances the serving clock by.
  double seconds_per_step = 0.1;
  // Optional lifecycle sink (src/obs/seq_events.h); null disables, same
  // no-op contract as the rollout engine.
  SeqEventLog* event_log = nullptr;
};

class ServingFrontend {
 public:
  // `net` is borrowed (read-only).
  ServingFrontend(const PolicyNet& net, const ServingFrontendConfig& config);

  // Serves `requests` (ids must be dense 0..n-1 and equal each request's
  // position — RequestsFromTrace produces this; replayed by arrival time,
  // not vector order). `on_token`
  // may be null; returning false from it cancels that request at the next
  // step boundary. `rng` seeds per-request sampling streams (greedy
  // decoding never draws from it).
  ServingResult Serve(const std::vector<ServingRequest>& requests, bool do_sample,
                      double temperature, Rng& rng, const StreamCallback& on_token = nullptr);

 private:
  const PolicyNet& net_;
  ServingFrontendConfig config_;
};

}  // namespace hybridflow

#endif  // SRC_SERVING_FRONTEND_H_
