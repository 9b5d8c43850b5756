// SimulateServing: the sim-plane serving entry point (docs/SERVING.md).
//
// Replays an arrival trace (src/data/arrival_trace.h) through the
// StepDriver (src/rollout/step_driver.h) with an arrival-list source and
// the sim backend: the same RolloutScheduler the data plane uses, but every
// step is charged PerfModel prefill/decode/comm costs instead of running a
// network. Arrivals are injected in stable arrival order as the DES clock
// passes them, TTFT-overdue requests are expired at step boundaries, and
// each request yields the same RequestRecord row the data plane emits (with
// an empty response — the sim plane never materializes tokens). This is
// what bench/bench_serving.cc sweeps across admission policies and trace
// shapes: identical trace, identical KV budget, only the policy differs.
#ifndef SRC_SERVING_SIM_H_
#define SRC_SERVING_SIM_H_

#include <vector>

#include "src/data/arrival_trace.h"
#include "src/perf/perf_model.h"
#include "src/rollout/step_driver.h"
#include "src/serving/request.h"

namespace hybridflow {

// records are one per trace record, by index.
struct ServingSimResult : ServingResult {
  double sim_seconds = 0.0;  // DES clock at drain.
};

// Completes `result` from a drained StepDriver run on either plane
// (ServingFrontend::Serve uses it too), whose sequence ids are the request
// ids: each record (one per request, tpot_slo already set) echoes its
// request's inputs and gets its streamed tokens, preemptions, token times
// and terminal outcome; then the report, scheduler stats and KV accounting.
void FinishServing(const StepDriver& driver, ServingResult* result);

// Serves `trace` on one generation replica of `replica_devices` GPUs under
// `config`. `kv_budget_bytes` bounds the per-GPU KV pool (SimKvConfig,
// raised to fit the largest request alone). The trace need not be sorted by
// arrival; record indices must be dense 0..n-1 in trace order.
// Deterministic given identical inputs.
ServingSimResult SimulateServing(const PerfModel& perf, const GenParallelConfig& gen,
                                 const std::vector<DeviceId>& replica_devices,
                                 const std::vector<ArrivalRecord>& trace,
                                 double kv_budget_bytes, const ServingPolicyConfig& config);

}  // namespace hybridflow

#endif  // SRC_SERVING_SIM_H_
