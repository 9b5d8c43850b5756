// hf_perfbench: the measuring half of the repository benchmark
// (perfbench/README.md). perfbench/run.py builds this binary and runs
//
//   hf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It generates the workload's inputs from --seed, sets the system up
// several times (timed), runs closed-loop operations for --seconds, checks
// every operation's outputs, and prints one JSON object of raw samples on
// its last stdout line. run.py turns those samples into the named metrics.
//
// With --trace 1 the measuring window is split: the first half runs
// untraced, the second half with the wall-clock tracer on, and the spans
// and registry instruments the program already records are attributed to
// layers. Calls into a layer's public function that no iteration span
// isolates (SimulateContinuousGeneration, DeviceMapper::Map,
// HybridEngine::TrainToGenTransition, SimulateServing) are timed directly
// afterwards.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/timeline_checker.h"
#include "src/baselines/system_builder.h"
#include "src/common/thread_pool.h"
#include "src/data/arrival_trace.h"
#include "src/mapping/device_mapper.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rollout/timing.h"
#include "src/serving/sim.h"
#include "src/sim/topology.h"
#include "src/tensor/parallel.h"
#include "src/tensor/simd.h"

namespace hfbench {
namespace {

using namespace hybridflow;

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the benchmark's own input generator, independent of the
// program's Rng so a change to src/ never changes the inputs.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int64_t Int(int64_t lo, int64_t hi) {  // Inclusive.
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// Nominal prompt length nudged by at most one token from the seed, so the
// simulated outputs differ between seeds by well under a percent and the
// host work hardly at all.
int64_t SeededLength(InputRng& rng, int64_t base) { return base + rng.Int(-1, 1); }

// ---------------------------------------------------------------------------
// Output collection.

// Flat JSON object writer over the repository's escaping and number
// formatting (src/obs/json_util.h).
class Json {
 public:
  void Num(const std::string& key, double value) { Raw(key, JsonNumber(value)); }
  void Str(const std::string& key, const std::string& value) { Raw(key, Quote(value)); }
  void Nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += JsonNumber(values[i]);
    }
    Raw(key, out + "]");
  }
  void Strs(const std::string& key, const std::vector<std::string>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += Quote(values[i]);
    }
    Raw(key, out + "]");
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) {
      body_ += ',';
    }
    body_ += Quote(key);
    body_ += ':';
    body_ += json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    out += JsonEscape(s);
    out += '"';
    return out;
  }

  std::string body_;
};

// Self time and call count of one span category (a "module" row).
struct ModuleRow {
  double self_us = 0.0;
  int64_t count = 0;
};

// Everything one run measured; serialized raw for run.py.
struct RunData {
  std::vector<double> setup_s;
  std::vector<double> op_s;         // Untraced operations.
  std::vector<double> traced_op_s;  // Traced operations (--trace 1).
  double measured_wall_s = 0.0;     // Untraced window.
  double tokens = 0.0;              // Tokens processed in the untraced window.
  double sim_tokens_per_s = 0.0;
  double sim_op_s = 0.0;
  double peak_rss_mb = 0.0;  // High-water mark at the end of the untraced window.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;  // Direct per-layer values.
  std::map<std::string, ModuleRow> modules;
  double unattributed_us = 0.0;  // Root span time no child covers.
  double rlhf_iteration_us = 0.0;
  double rlhf_unattributed_us = 0.0;
  int64_t wall_spans = 0;
  std::string registry_before;  // MetricsRegistry JSONL around the traced window.
  std::string registry_after;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(what);
    }
  }
  void Add(const std::string& key, double value) { layer[key] += value; }
};

// ---------------------------------------------------------------------------
// Span attribution.

// Name of the root span opened around every traced operation.
constexpr const char* kRootSpan = "bench.op";

// Folds one traced operation's spans into `data`: per-category self time
// (duration minus same-thread nested children), the named per-layer sums,
// and the root span's uncovered remainder.
void AttributeSpans(const std::vector<WallSpan>& spans, RunData& data) {
  std::map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_thread[spans[i].thread_id].push_back(i);
  }
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<int> parent(spans.size(), -1);
  for (auto& [thread, ids] : by_thread) {
    std::sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
      if (spans[a].start_us != spans[b].start_us) {
        return spans[a].start_us < spans[b].start_us;
      }
      return spans[a].duration_us > spans[b].duration_us;
    });
    std::vector<size_t> stack;
    for (size_t id : ids) {
      const double start = spans[id].start_us;
      while (!stack.empty() &&
             spans[stack.back()].start_us + spans[stack.back()].duration_us <= start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        parent[id] = static_cast<int>(stack.back());
        child_us[stack.back()] += spans[id].duration_us;
      }
      stack.push_back(id);
    }
  }
  // Outermost span of its own category on its thread (a "<model>.<op>
  // .distribute" transfer span wraps protocol.distribute, for example).
  const auto outermost = [&](size_t id) {
    for (int p = parent[id]; p >= 0; p = parent[static_cast<size_t>(p)]) {
      if (spans[static_cast<size_t>(p)].category == spans[id].category) {
        return false;
      }
    }
    return true;
  };
  data.wall_spans += static_cast<int64_t>(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const WallSpan& span = spans[i];
    const double self = std::max(0.0, span.duration_us - child_us[i]);
    if (span.name == kRootSpan) {
      data.unattributed_us += self;
      continue;
    }
    ModuleRow& row = data.modules[span.category];
    row.self_us += self;
    row.count += 1;
    if (span.category == "dispatch") {
      data.Add("workers.dispatch_calls", 1);
      data.Add("workers.dispatch_self_us", self);
    } else if (span.category == "compute" && outermost(i)) {
      data.Add("workers.compute_us", span.duration_us);
    } else if (span.category == "transfer" && outermost(i)) {
      data.Add("transfer.us", span.duration_us);
    } else if (span.category == "reshard" && outermost(i)) {
      data.Add("hybridengine.reshard_us", span.duration_us);
    } else if (span.category == "generate" && outermost(i)) {
      data.Add("rollout.generate_us", span.duration_us);
    } else if (span.name == "rlhf.stage.generation") {
      data.Add("rlhf.generation_us", span.duration_us);
    } else if (span.name == "rlhf.stage.experience") {
      data.Add("rlhf.experience_us", span.duration_us);
    } else if (span.name == "rlhf.stage.learning") {
      data.Add("rlhf.learning_us", span.duration_us);
    } else if (span.name == "rlhf.iteration") {
      data.rlhf_iteration_us += span.duration_us;
      data.rlhf_unattributed_us += self;
    }
  }
}

// ---------------------------------------------------------------------------
// Generic measuring loop.

// Set-up is timed in kSetupSamples batches of kSetupBatch calls; each
// sample is the mean over one batch, since one set-up takes milliseconds.
constexpr size_t kSetupSamples = 21;
constexpr int kSetupBatch = 4;

struct Workload {
  // Timed set-up. The first call builds the state the operations use;
  // later calls must leave it intact.
  std::function<void()> setup;
  // Unmeasured warm-up after set-up (lazy caches, first-touch allocations).
  std::function<void()> warmup;
  // One measured operation; returns the tokens it processed.
  std::function<double(bool traced)> op;
  // Cross-operation checks and direct per-layer timings, after measuring.
  std::function<void(bool traced)> finish;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Times one batch of set-ups; returns the batch's wall seconds.
double TimeSetup(Workload& w, RunData& data) {
  const double t0 = NowSeconds();
  for (int b = 0; b < kSetupBatch; ++b) {
    w.setup();
  }
  const double elapsed = NowSeconds() - t0;
  data.setup_s.push_back(elapsed / kSetupBatch);
  return elapsed;
}

void RunWorkload(Workload& w, double seconds, bool trace, RunData& data) {
  // The first set-up sample comes before any operation. The others are
  // spread evenly over the untraced window, between operations and outside
  // their timings, so the set-up median is taken over the same host
  // conditions as the operations' medians.
  TimeSetup(w, data);
  if (w.warmup) {
    w.warmup();
  }
  const double window = trace ? seconds / 2.0 : seconds;
  const double start = NowSeconds();
  double now = start;
  double setup_in_window = 0.0;
  while (now - start < window || data.op_s.size() < 3) {
    const double t0 = NowSeconds();
    data.tokens += w.op(false);
    now = NowSeconds();
    data.op_s.push_back(now - t0);
    if (data.setup_s.size() < kSetupSamples &&
        now - start >= window * static_cast<double>(data.setup_s.size()) / kSetupSamples) {
      setup_in_window += TimeSetup(w, data);
      now = NowSeconds();
    }
  }
  data.measured_wall_s = now - start - setup_in_window;
  while (data.setup_s.size() < kSetupSamples) {
    TimeSetup(w, data);
  }
  data.peak_rss_mb = PeakRssMb();
  if (trace) {
    WallclockTracer& tracer = WallclockTracer::Global();
    data.registry_before = MetricsRegistry::Global().ToJsonLines();
    double traced_s = 0.0;
    while (traced_s < window || data.traced_op_s.size() < 3) {
      tracer.Clear();
      tracer.SetEnabled(true);
      double t0 = 0.0;
      double t1 = 0.0;
      {
        TraceScope root(kRootSpan, "bench");
        t0 = NowSeconds();
        w.op(true);
        t1 = NowSeconds();
      }
      tracer.SetEnabled(false);
      data.traced_op_s.push_back(t1 - t0);
      traced_s += t1 - t0;
      AttributeSpans(tracer.Snapshot(), data);
    }
    tracer.Clear();
    data.registry_after = MetricsRegistry::Global().ToJsonLines();
  }
  if (w.finish) {
    w.finish(trace);
  }
}

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

// Bitwise equality of doubles (the determinism contracts are bitwise).
bool Same(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Clean TimelineChecker verdict on an instance's simulated trace.
bool TimelineClean(const RlhfSystemInstance& system, std::string* report) {
  TimelineChecker checker(system.controller->spec());
  for (const auto& pool : system.controller->pools()) {
    checker.RegisterGroup(pool->name(), pool->devices());
  }
  const std::vector<TimelineViolation> violations = checker.Check(system.controller->cluster());
  if (!violations.empty() && report != nullptr) {
    *report = FormatViolations(violations).substr(0, 300);
  }
  return violations.empty();
}

// ---------------------------------------------------------------------------
// rlhf_real / rlhf_sim: closed loops of RlhfSystemInstance::RunIteration.

struct IterationRecord {
  double sim_seconds = 0.0;
  double sim_tokens_per_s = 0.0;
  double reward = 0.0;
  double actor_loss = 0.0;
  double critic_loss = 0.0;
};

IterationRecord Record(const IterationMetrics& m) {
  return {m.iteration_seconds, m.throughput_tokens_per_sec, m.mean_reward, m.actor_loss,
          m.critic_loss};
}

// Re-issues the actor's sim-plane rollout call (ActorWorkerGroup::
// GenerationSeconds) with the same inputs and times it. The KV budget is
// rebuilt from the post-iteration memory state the way generation sees
// it: free memory minus the retained generation shard and the transient
// gather peak.
RolloutSimResult DirectRolloutSim(const RlhfSystemInstance& system,
                                  const RlhfWorkloadSpec& workload, double* call_s) {
  const ActorWorkerGroup& actor = *system.actor;
  const HybridEngine& engine = actor.engine();
  const std::vector<DeviceId> devices = engine.GenReplicaDevices(0);
  const GenParallelConfig& gen = engine.gen_config();
  const int replicas = engine.NumGenReplicas();
  const int64_t per_replica = (workload.global_batch + replicas - 1) / replicas;
  const double resident = actor.ResidentParamBytesPerGpu();
  const double gen_shard = actor.perf().param_bytes() / static_cast<double>(gen.pp * gen.tp);
  const double retained = std::max(0.0, gen_shard - resident);
  const double extra = std::max(0.0, actor.last_transition_stats().peak_param_bytes - resident);
  const double available = system.controller->cluster().memory(devices[0]).available();
  const double kv_budget = std::max(1.0, available - retained - extra);
  const std::vector<NominalSequence> nominal(
      static_cast<size_t>(per_replica),
      NominalSequence{workload.prompt_len, workload.response_len});
  const double t0 = NowSeconds();
  RolloutSimResult result = SimulateContinuousGeneration(
      actor.perf(), gen, devices, nominal, kv_budget, actor.actor_options().rollout);
  *call_s = NowSeconds() - t0;
  return result;
}

double MapOnce(const SystemBuildConfig& config, MappingResult* out) {
  MapperOptions options;
  options.perf = config.perf;
  DeviceMapper mapper(DataflowModels(config.algorithm, config.actor_model, config.critic_model),
                      config.workload, ClusterSpec::WithGpus(config.num_gpus, config.gpus_per_node),
                      options);
  const double t0 = NowSeconds();
  *out = mapper.Map(config.num_gpus, config.placement);
  return NowSeconds() - t0;
}

void AddRolloutSim(const RolloutSimResult& sim, double call_s, int64_t prompt_tokens,
                   RunData& data) {
  data.layer["rollout_sim.call_us"] = call_s * 1e6;
  data.layer["rollout_sim.steps"] = static_cast<double>(sim.stats.steps);
  data.layer["kvcache.peak_util"] = sim.stats.kv_peak_utilization;
  data.layer["kvcache.preemptions"] = static_cast<double>(sim.stats.preemptions);
  data.layer["kvcache.prefix_hit_frac"] =
      prompt_tokens > 0 ? static_cast<double>(sim.stats.prefix_skipped_tokens) /
                              static_cast<double>(prompt_tokens)
                        : 0.0;
}

Workload MakeRlhf(const SystemBuildConfig& config, int warmup_iterations, bool real,
                  RunData& data) {
  struct State {
    std::vector<std::unique_ptr<RlhfSystemInstance>> built;
    RlhfSystemInstance* primary = nullptr;
    RlhfSystemInstance* replica = nullptr;
    std::vector<IterationRecord> history;  // Every primary iteration, warm-up included.
    size_t first_measured = 0;
    double tokens_per_iteration = 0.0;
  };
  auto state = std::make_shared<State>();
  Workload w;
  w.setup = [state, config]() {
    auto instance = std::make_unique<RlhfSystemInstance>(BuildSystem(config));
    if (!instance->feasible) {
      std::cerr << "BuildSystem: infeasible system\n";
      std::exit(1);
    }
    // Keep two instances: the measured one and a same-seed replica for the
    // determinism check; the rest only contribute set-up samples.
    if (state->built.size() < 2) {
      state->built.push_back(std::move(instance));
    }
  };
  w.warmup = [state, config, warmup_iterations, real]() {
    state->primary = state->built[0].get();
    state->replica = state->built[1].get();
    const AlignmentTask& task = state->primary->actor->real().task;
    state->tokens_per_iteration =
        real ? static_cast<double>(config.real_batch * (task.prompt_len + task.response_len))
             : config.workload.TokensPerIteration();
    for (int i = 0; i < warmup_iterations; ++i) {
      state->history.push_back(Record(state->primary->RunIteration()));
    }
    state->first_measured = state->history.size();
  };
  w.op = [state, real, &data](bool) {
    const IterationRecord record = Record(state->primary->RunIteration());
    state->history.push_back(record);
    ++data.attempted;
    if (real) {
      if (!std::isfinite(record.reward) || !std::isfinite(record.actor_loss) ||
          !std::isfinite(record.critic_loss)) {
        data.Fail("non-finite reward/loss at iteration " +
                  std::to_string(state->history.size() - 1));
      }
    } else {
      // Iteration seconds are differences of absolute makespans, so they
      // may differ from iteration to iteration in the last bits; across
      // same-seed instances they must match bitwise (checked in finish).
      const IterationRecord& first = state->history[state->first_measured];
      if (std::fabs(record.sim_seconds - first.sim_seconds) > 1e-9 * first.sim_seconds ||
          std::fabs(record.sim_tokens_per_s - first.sim_tokens_per_s) >
              1e-9 * first.sim_tokens_per_s) {
        data.Fail("simulated iteration differs from the first measured one");
      }
    }
    return state->tokens_per_iteration;
  };
  w.finish = [state, config, real, &data](bool traced) {
    const std::vector<IterationRecord>& history = state->history;
    const IterationRecord& first = history[state->first_measured];
    data.sim_tokens_per_s = first.sim_tokens_per_s;
    data.sim_op_s = first.sim_seconds;
    // Same-seed replica: the data-plane sequence must repeat bitwise; the
    // simulated iteration must repeat exactly.
    const size_t replay = real ? std::min<size_t>(history.size(), state->first_measured + 4)
                               : state->first_measured + 1;
    for (size_t i = 0; i < replay; ++i) {
      const IterationRecord r = Record(state->replica->RunIteration());
      const IterationRecord& p = history[i];
      const bool same = real ? Same(r.reward, p.reward) && Same(r.actor_loss, p.actor_loss) &&
                                   Same(r.critic_loss, p.critic_loss)
                             : Same(r.sim_seconds, p.sim_seconds) &&
                                   Same(r.sim_tokens_per_s, p.sim_tokens_per_s);
      if (!same) {
        data.Fail("same-seed replica diverged at iteration " + std::to_string(i));
      }
    }
    if (!traced) {
      return;
    }
    std::string report;
    if (!TimelineClean(*state->primary, &report)) {
      data.Fail("TimelineChecker: " + report);
    }
    // Direct timings of the layers RunIteration reaches without a span of
    // their own, medians of a few calls. Each rollout call follows an
    // iteration, so its share of the iteration is a ratio of neighbouring
    // measurements and does not mix fast and slow stretches of a shared
    // machine.
    std::vector<double> call_s;
    std::vector<double> share;
    RolloutSimResult sim;
    if (config.rollout.mode == RolloutMode::kContinuous) {
      for (int i = 0; i < 3; ++i) {
        const double t0 = NowSeconds();
        state->primary->RunIteration();
        const double iteration_s = NowSeconds() - t0;
        double s = 0.0;
        sim = DirectRolloutSim(*state->primary, config.workload, &s);
        call_s.push_back(s);
        share.push_back(s / iteration_s);
        // The direct call must be the actor's own: same steps and preemptions.
        const RolloutStats& seen = state->primary->actor->last_rollout_sim_stats();
        ++data.attempted;
        if (sim.stats.steps != seen.steps || sim.stats.preemptions != seen.preemptions) {
          data.Fail("direct SimulateContinuousGeneration call did not reproduce the actor's (" +
                    std::to_string(sim.stats.steps) + " vs " + std::to_string(seen.steps) +
                    " steps)");
        }
      }
      const int replicas = state->primary->actor->engine().NumGenReplicas();
      const int64_t per_replica = (config.workload.global_batch + replicas - 1) / replicas;
      AddRolloutSim(sim, Median(call_s), per_replica * config.workload.prompt_len, data);
      data.layer["rollout_sim.share_of_op"] = Median(share);
    }
    std::vector<double> transition_s;
    for (int i = 0; i < 5; ++i) {
      const double t0 = NowSeconds();
      state->primary->actor->engine().TrainToGenTransition();
      transition_s.push_back(NowSeconds() - t0);
    }
    data.layer["hybridengine.transition_call_us"] = Median(transition_s) * 1e6;
    // Each Map call is followed by a timed set-up, so its share of the
    // set-up is again a ratio of neighbouring measurements.
    MappingResult mapping;
    std::vector<double> map_s;
    std::vector<double> map_share;
    for (int i = 0; i < 3; ++i) {
      map_s.push_back(MapOnce(config, &mapping));
      const double t0 = NowSeconds();
      BuildSystem(config);
      map_share.push_back(map_s.back() / (NowSeconds() - t0));
    }
    data.layer["mapping.map_us"] = Median(map_s) * 1e6;
    data.layer["mapping.simulations"] = static_cast<double>(mapping.simulations);
    data.layer["mapping.cache_hits"] = static_cast<double>(mapping.cache_hits);
    data.layer["mapping.share_of_setup"] = Median(map_share);
    const size_t before = state->primary->controller->cluster().trace().size();
    state->primary->RunIteration();
    data.layer["sim.spans_per_op"] =
        static_cast<double>(state->primary->controller->cluster().trace().size() - before);
  };
  return w;
}

SystemBuildConfig RlhfRealConfig(InputRng& rng) {
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.algorithm = RlhfAlgorithm::kPpo;
  config.num_gpus = 8;
  config.actor_model = ModelSpec::Llama7B();
  config.critic_model = ModelSpec::Llama7B();
  config.workload.global_batch = 64;
  config.workload.prompt_len = SeededLength(rng, 128);
  config.workload.response_len = 128;
  config.placement = PlacementKind::kAuto;
  config.real_compute = true;
  config.real_batch = 64;
  config.real_arch = PolicyArch::kTransformer;
  config.seed = rng.Next() >> 16;  // Prompt-dataset and init seed.
  config.rollout.mode = RolloutMode::kContinuous;
  return config;
}

SystemBuildConfig RlhfSimConfig(InputRng& rng) {
  // Shaped like configs/ppo_7b_continuous_rollout.cfg.
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.algorithm = RlhfAlgorithm::kPpo;
  config.num_gpus = 16;
  config.actor_model = ModelSpec::Llama7B();
  config.critic_model = ModelSpec::Llama7B();
  config.workload.global_batch = 1024;
  config.workload.prompt_len = SeededLength(rng, 1024);
  config.workload.response_len = 1024;
  config.placement = PlacementKind::kAuto;
  config.real_compute = false;
  config.seed = rng.Next() >> 16;
  config.rollout.mode = RolloutMode::kContinuous;
  config.rollout.prefill_chunk_tokens = 512;
  config.rollout.enable_prefix_cache = true;
  config.rollout.reserve_full_length = true;
  return config;
}

// ---------------------------------------------------------------------------
// Serving probe: SimulateServing replays of one seeded trace, run after
// rlhf_sim's measured window. Replay host time swings too much with load
// from other tenants of a shared machine to carry an end-to-end bound,
// so serving is measured per layer and checked on every rlhf_sim run.

// Two tenants on a bursty ON-OFF arrival process (Lewis-Shedler thinning),
// generated here rather than by src/data so the program receives only the
// finished trace. Tenant 0 is interactive: TTFT/TPOT SLOs and prompts that
// open with one of a few shared system prompts (prompt_group). Tenant 1 is
// best-effort batch; a fixed share of its clients hang up after a seeded
// number of tokens (SimulateServing has no cancellation input, so the
// hang-up is the request's early end).
std::vector<ArrivalRecord> MakeServingTrace(InputRng& rng, int64_t requests, double rate) {
  const double burst_on = 2.0;
  const double burst_off = 6.0;
  const double burst_factor = 4.0;
  const double peak = rate * burst_factor;
  std::vector<ArrivalRecord> trace;
  trace.reserve(static_cast<size_t>(requests));
  double t = 0.0;
  while (static_cast<int64_t>(trace.size()) < requests) {
    t += -std::log(1.0 - rng.Uniform()) / peak;
    const bool on = std::fmod(t, burst_on + burst_off) < burst_on;
    const double lambda = on ? peak : rate;
    if (rng.Uniform() * peak > lambda) {
      continue;
    }
    ArrivalRecord record;
    record.index = static_cast<int64_t>(trace.size());
    record.arrival = t;
    if (rng.Uniform() < 0.3) {
      record.tenant = 0;
      record.priority = 10;
      record.prompt_group = rng.Int(0, 3);
      record.prompt_tokens = 128 + 16 * rng.Int(0, 8);
      record.target_new_tokens = rng.Int(16, 64);
      record.ttft_deadline = t + 2.0;
      record.tpot_slo = 0.5;
    } else {
      record.tenant = 1;
      record.prompt_tokens = rng.Int(256, 1024);
      record.target_new_tokens = rng.Int(64, 256);
      if (rng.Uniform() < 0.1) {
        record.target_new_tokens = rng.Int(1, record.target_new_tokens);
      }
    }
    trace.push_back(record);
  }
  return trace;
}

constexpr int64_t kServeRequests = 4000;
constexpr double kServeRate = 3.0;         // Baseline arrivals per second.
constexpr double kServeKvTokens = 8192.0;  // Per-GPU KV pool, in tokens.
constexpr int kServeReplays = 3;

void ProbeServing(uint64_t trace_seed, bool traced, RunData& data) {
  InputRng rng(trace_seed);
  const std::vector<ArrivalRecord> trace = MakeServingTrace(rng, kServeRequests, kServeRate);
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(16));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const double kv_budget = kServeKvTokens * perf.KvBytesPerTokenPerGpu(gen);
  ServingPolicyConfig policy;
  policy.admission = AdmissionPolicy::kDeadline;
  policy.expire_overdue = true;
  policy.prefix_cache = true;

  std::vector<double> replay_s;
  ServingSimResult first;
  for (int i = 0; i < kServeReplays; ++i) {
    const double t0 = NowSeconds();
    ServingSimResult result = SimulateServing(perf, gen, devices, trace, kv_budget, policy);
    replay_s.push_back(NowSeconds() - t0);
    ++data.attempted;
    bool ok = result.kv_leaked_blocks == 0 &&
              result.report.finished + result.report.cancelled + result.report.expired ==
                  static_cast<int64_t>(trace.size());
    for (size_t r = 0; ok && i > 0 && r < result.records.size(); ++r) {
      const RequestRecord& a = result.records[r];
      const RequestRecord& b = first.records[r];
      ok = a.outcome == b.outcome && a.tokens == b.tokens && Same(a.end_time, b.end_time) &&
           Same(a.first_token_time, b.first_token_time);
    }
    if (!ok) {
      data.Fail("SimulateServing replay: leak, non-terminal record, or replay mismatch");
    }
    if (i == 0) {
      first = std::move(result);
    }
  }
  if (!traced) {
    return;
  }
  const double requests = static_cast<double>(trace.size());
  int64_t prompt_tokens = 0;
  for (const ArrivalRecord& r : trace) {
    prompt_tokens += r.prompt_tokens;
  }
  const RolloutSchedulerStats& stats = first.scheduler_stats;
  data.layer["serving.replay_us"] = Median(replay_s) * 1e6;
  data.layer["serving.steps"] = static_cast<double>(stats.steps);
  data.layer["serving.preemptions"] = static_cast<double>(stats.preemptions);
  data.layer["serving.prefix_hit_frac"] =
      static_cast<double>(stats.prefix_skipped_tokens) / static_cast<double>(prompt_tokens);
  data.layer["serving.expired_frac"] = static_cast<double>(first.report.expired) / requests;
  data.layer["serving.cancelled_frac"] = static_cast<double>(first.report.cancelled) / requests;
  data.layer["serving.kv_high_water_blocks"] = static_cast<double>(first.kv_high_water_blocks);
  data.layer["serving.sim_goodput_tok_s"] = first.report.goodput;
  for (const TenantServingStats& tenant : first.report.tenants) {
    if (tenant.tenant == 0) {
      data.layer["serving.sim_ttft_p50_s"] = tenant.ttft.p50;
      data.layer["serving.sim_ttft_p99_s"] = tenant.ttft.p99;
    }
  }
}

// ---------------------------------------------------------------------------

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload rlhf_real|rlhf_sim --seed N --seconds S "
               "--trace 0|1\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
    } else if (key == "--seconds") {
      seconds = std::stod(value);
    } else if (key == "--trace") {
      trace = value == "1";
    } else {
      return Usage(argv[0]);
    }
  }
  if (workload.empty() || seconds <= 0.0) {
    return Usage(argv[0]);
  }

  RunData data;
  InputRng rng(seed * 0x2545F4914F6CDD1DULL + 0x5EEDULL);
  Workload w;
  if (workload == "rlhf_real") {
    w = MakeRlhf(RlhfRealConfig(rng), 2, true, data);
  } else if (workload == "rlhf_sim") {
    w = MakeRlhf(RlhfSimConfig(rng), 1, false, data);
  } else {
    return Usage(argv[0]);
  }
  RunWorkload(w, seconds, trace, data);
  if (workload == "rlhf_sim") {
    ProbeServing(rng.Next(), trace, data);
  }

  Json out;
  out.Str("workload", workload);
  out.Str("build_type", HF_PERFBENCH_BUILD_TYPE);
#ifdef HF_SYNC_CONTRACTS_OFF
  out.Str("sync_contracts", "off");
#else
  out.Str("sync_contracts", "on");
#endif
  out.Str("simd", SimdLevelName(ActiveSimdLevel()));
  out.Num("nproc", std::thread::hardware_concurrency());
  out.Num("shared_pool_threads", ThreadPool::Shared().size());
  out.Num("tensor_threads", TensorThreads());
  out.Num("seed", static_cast<double>(seed));
  out.Nums("setup_s", data.setup_s);
  out.Nums("op_s", data.op_s);
  out.Nums("traced_op_s", data.traced_op_s);
  out.Num("measured_wall_s", data.measured_wall_s);
  out.Num("tokens", data.tokens);
  out.Num("sim_tokens_per_s", data.sim_tokens_per_s);
  out.Num("sim_op_s", data.sim_op_s);
  out.Num("peak_rss_mb", data.peak_rss_mb);
  out.Num("attempted", static_cast<double>(data.attempted));
  out.Num("failed", static_cast<double>(data.failed));
  out.Strs("failures", data.failures);
  Json layer;
  for (const auto& [key, value] : data.layer) {
    layer.Num(key, value);
  }
  out.Raw("layer", layer.str());
  Json modules;
  for (const auto& [name, row] : data.modules) {
    Json r;
    r.Num("self_us", row.self_us);
    r.Num("count", static_cast<double>(row.count));
    modules.Raw(name, r.str());
  }
  out.Raw("modules", modules.str());
  out.Num("unattributed_us", data.unattributed_us);
  out.Num("rlhf_iteration_us", data.rlhf_iteration_us);
  out.Num("rlhf_unattributed_us", data.rlhf_unattributed_us);
  out.Num("wall_spans", static_cast<double>(data.wall_spans));
  out.Str("registry_before", data.registry_before);
  out.Str("registry_after", data.registry_after);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace hfbench

int main(int argc, char** argv) { return hfbench::Main(argc, argv); }
