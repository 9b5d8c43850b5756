#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "src/perf/perf_model.h"
#include "tests/golden_pins.h"

namespace hybridflow {
namespace {

std::vector<DeviceId> Devices(int n) {
  std::vector<DeviceId> devices(static_cast<size_t>(n));
  std::iota(devices.begin(), devices.end(), 0);
  return devices;
}

class PerfModelTest : public ::testing::Test {
 protected:
  ClusterSpec cluster_ = ClusterSpec::WithGpus(16);
  PerfModel perf_{ModelSpec::Llama7B(), cluster_};
};

TEST_F(PerfModelTest, TrainStepScalesDownWithMoreGpus) {
  const double small = perf_.TrainStepTime({1, 2, 2}, Devices(4), 128, 2048, 4);
  ClusterSpec big_cluster = ClusterSpec::WithGpus(16);
  PerfModel big_perf(ModelSpec::Llama7B(), big_cluster);
  const double big = big_perf.TrainStepTime({1, 2, 8}, Devices(16), 128, 2048, 4);
  EXPECT_GT(small, big);
}

TEST_F(PerfModelTest, PipelineBubbleShrinksWithMicrobatches) {
  // Large enough batch that per-microbatch utilization stays saturated;
  // then more microbatches strictly shrink the (p-1)/m bubble.
  const double few = perf_.TrainStepTime({4, 1, 4}, Devices(16), 512, 2048, 4);
  const double many = perf_.TrainStepTime({4, 1, 4}, Devices(16), 512, 2048, 16);
  EXPECT_GT(few, many);
}

TEST_F(PerfModelTest, TinyPerGpuBatchesDegradeUtilization) {
  // §8.3: with a fixed global batch, growing DP shrinks per-GPU work and
  // the achieved MFU drops — throughput stops scaling linearly.
  const double half_batch = perf_.TrainStepTime({1, 1, 16}, Devices(16), 16, 2048, 1);
  const double full_batch = perf_.TrainStepTime({1, 1, 16}, Devices(16), 64, 2048, 1);
  // 4x the work in less than 4x the time.
  EXPECT_LT(full_batch, 3.9 * half_batch);
}

TEST_F(PerfModelTest, TensorParallelAddsCommOverhead) {
  // Same model-parallel degree: tp=4 pays activation all-reduces that
  // pp=4 does not (pp pays a bubble instead; at high microbatch counts TP
  // comm dominates for long sequences).
  const double tp_heavy = perf_.TrainStepTime({1, 4, 4}, Devices(16), 128, 2048, 16);
  const double pp_heavy = perf_.TrainStepTime({4, 1, 4}, Devices(16), 128, 2048, 16);
  EXPECT_GT(tp_heavy, 0.0);
  EXPECT_GT(pp_heavy, 0.0);
}

TEST_F(PerfModelTest, InferIsCheaperThanTrain) {
  EXPECT_LT(perf_.InferTime({1, 2, 8}, Devices(16), 128, 2048),
            perf_.TrainStepTime({1, 2, 8}, Devices(16), 128, 2048, 4));
}

TEST_F(PerfModelTest, ZeroTrainChargesParamGathers) {
  ZeroConfig stage3{ZeroStage::kStage3, 16};
  ZeroConfig stage2{ZeroStage::kStage2, 16};
  EXPECT_GT(perf_.ZeroTrainStepTime(stage3, Devices(16), 128, 2048),
            perf_.ZeroTrainStepTime(stage2, Devices(16), 128, 2048));
}

TEST_F(PerfModelTest, ZeroInferChargesGatherOnlyForStage3) {
  ZeroConfig stage3{ZeroStage::kStage3, 16};
  ZeroConfig none{ZeroStage::kNone, 16};
  EXPECT_GT(perf_.ZeroInferTime(stage3, Devices(16), 128, 2048),
            perf_.ZeroInferTime(none, Devices(16), 128, 2048));
}

TEST_F(PerfModelTest, ScalarHeadSlightlyCheaper) {
  PerfModel scalar(ModelSpec::Llama7B(), cluster_, /*scalar_head=*/true);
  EXPECT_LT(scalar.num_params(), perf_.num_params());
  EXPECT_LT(scalar.InferTime({1, 2, 8}, Devices(16), 128, 2048),
            perf_.InferTime({1, 2, 8}, Devices(16), 128, 2048));
}

// --- Generation -------------------------------------------------------------

TEST_F(PerfModelTest, GenerationDecodeDominatesPrefill) {
  GenTimeBreakdown breakdown = perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024,
                                                  40e9, /*use_kv_cache=*/true);
  EXPECT_GT(breakdown.decode_seconds, breakdown.prefill_seconds);
}

TEST_F(PerfModelTest, NoKvCacheIsMuchSlower) {
  GenTimeBreakdown cached =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 40e9, true);
  GenTimeBreakdown uncached =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 40e9, false);
  EXPECT_GT(uncached.total(), 5.0 * cached.total());
}

TEST_F(PerfModelTest, TinyKvBudgetForcesWaves) {
  GenTimeBreakdown roomy =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 60e9, true);
  GenTimeBreakdown cramped =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 2e9, true);
  EXPECT_GT(cramped.waves, roomy.waves);
  EXPECT_GT(cramped.total(), roomy.total());
}

TEST_F(PerfModelTest, Figure15ShapeSmallTpBeatsLargeTpUntilKvBound) {
  // §8.4 / Fig 15: on a fixed device budget, generation latency is minimized
  // at a moderate t_g: t_g = 8 underutilizes, t_g too small starves KVCache.
  // Replicate: 8 GPUs available for generation of batch 1024.
  const int64_t batch = 1024;
  std::map<int, double> latency;
  for (int tg : {1, 2, 4, 8}) {
    const int replicas = 8 / tg;
    const int64_t per_replica = batch / replicas;
    // Best-effort KV budget: capacity minus resident training state (7B
    // colocated, ~15 GB) minus the gathered generation shard.
    const double budget =
        cluster_.gpu.memory_bytes - 15e9 - perf_.GenParamBytesPerGpu({1, tg});
    GenTimeBreakdown breakdown = perf_.GenerateTime({1, tg}, Devices(tg), per_replica, 1024,
                                                    1024, budget, true);
    latency[tg] = breakdown.total();
  }
  // tg=8 (NeMo-style) must be the worst or near-worst of the sweep.
  EXPECT_GT(latency[8], latency[2]);
  EXPECT_GT(latency[8], latency[4]);
}

TEST_F(PerfModelTest, PipelineGenerationPaysHandoffPenalty) {
  GenTimeBreakdown flat =
      perf_.GenerateTime({1, 4}, Devices(4), 128, 1024, 1024, 40e9, true);
  GenTimeBreakdown piped =
      perf_.GenerateTime({4, 1}, Devices(4), 128, 1024, 1024, 40e9, true);
  EXPECT_GT(piped.total(), flat.total());
}

TEST_F(PerfModelTest, WaveCountIsMonotoneInKvBudget) {
  int previous_waves = 1 << 30;
  for (double budget : {2e9, 8e9, 20e9, 60e9}) {
    GenTimeBreakdown breakdown =
        perf_.GenerateTime({1, 2}, Devices(2), 256, 1024, 1024, budget, true);
    EXPECT_LE(breakdown.waves, previous_waves) << budget;
    previous_waves = breakdown.waves;
  }
}

TEST_F(PerfModelTest, KvBytesShardedByGenConfig) {
  EXPECT_DOUBLE_EQ(perf_.KvBytesPerTokenPerGpu({1, 1}),
                   2.0 * perf_.KvBytesPerTokenPerGpu({1, 2}));
  EXPECT_DOUBLE_EQ(perf_.KvBytesPerTokenPerGpu({1, 1}),
                   2.0 * perf_.KvBytesPerTokenPerGpu({2, 1}));
}

TEST_F(PerfModelTest, MemoryAccountants) {
  // Train memory grows with tokens; infer memory is just the param shard.
  EXPECT_GT(perf_.TrainMemoryPerGpu({1, 2, 8}, 8192, 4),
            perf_.TrainMemoryPerGpu({1, 2, 8}, 1024, 4));
  EXPECT_DOUBLE_EQ(perf_.InferMemoryPerGpu({1, 2, 8}), perf_.param_bytes() / 2.0);
  EXPECT_DOUBLE_EQ(perf_.GenParamBytesPerGpu({2, 2}), perf_.param_bytes() / 4.0);
  ZeroConfig zero{ZeroStage::kStage3, 16};
  EXPECT_LT(perf_.ZeroTrainMemoryPerGpu(zero, 1024),
            18.0 * perf_.num_params());  // Sharded.
}

const std::vector<Pin> kGenerateTimeCases = {
    {"7B/tp1/below_one", 0x33e36640bb5e257aULL},
    {"7B/tp1/one_wave", 0xad25974e68d941a2ULL},
    {"7B/tp1/many_waves", 0xe28ea5972adf8808ULL},
    {"7B/tp2/below_one", 0x08dce8867656c35aULL},
    {"7B/tp2/one_wave", 0x9bde6cdc96160c8eULL},
    {"7B/tp2/many_waves", 0x0b13e68360cba2fcULL},
    {"7B/tp4/below_one", 0xf1be64293ccae1ecULL},
    {"7B/tp4/one_wave", 0x3a776100fd8420b9ULL},
    {"7B/tp4/many_waves", 0x3ec8b887b10c7a6cULL},
    {"7B/tp8/below_one", 0x24aec710fff76f4bULL},
    {"7B/tp8/one_wave", 0xb7a64dd85188a09bULL},
    {"7B/tp8/many_waves", 0x8b4912586b31a66eULL},
    {"13B/tp1/below_one", 0x809d3006838072bdULL},
    {"13B/tp1/one_wave", 0x558ba5893b080d94ULL},
    {"13B/tp1/many_waves", 0x185d38484978cfb4ULL},
    {"13B/tp2/below_one", 0xef925d71ff5efbf5ULL},
    {"13B/tp2/one_wave", 0x1d6e9d9ad88660ffULL},
    {"13B/tp2/many_waves", 0x3241b81ef6af5c95ULL},
    {"13B/tp4/below_one", 0xf2e31cbe0eeba240ULL},
    {"13B/tp4/one_wave", 0x144b6a94cbcc0984ULL},
    {"13B/tp4/many_waves", 0x21395f277636c2f9ULL},
    {"13B/tp8/below_one", 0x258662e23253cc4aULL},
    {"13B/tp8/one_wave", 0x95fc72065529089fULL},
    {"13B/tp8/many_waves", 0xd953efd3ebe222d2ULL},
    {"34B/tp1/below_one", 0xea9a90c976da0711ULL},
    {"34B/tp1/one_wave", 0x73e2a9714b0221eaULL},
    {"34B/tp1/many_waves", 0xc3fdd8eea24d2f64ULL},
    {"34B/tp2/below_one", 0xbdfadd5de6dc0ee0ULL},
    {"34B/tp2/one_wave", 0xb8d39a32e59ce8fbULL},
    {"34B/tp2/many_waves", 0xdff1870615f38251ULL},
    {"34B/tp4/below_one", 0xd18063e0ea82dfa0ULL},
    {"34B/tp4/one_wave", 0x4ef5d9479b6306a4ULL},
    {"34B/tp4/many_waves", 0xeda8bb0b0cee21e5ULL},
    {"34B/tp8/below_one", 0x15552cc9607d9681ULL},
    {"34B/tp8/one_wave", 0xe8ba3b08d3232a6aULL},
    {"34B/tp8/many_waves", 0xe9b9a8687efc30cdULL},
    {"70B/tp1/below_one", 0x3cd45a450e66e34cULL},
    {"70B/tp1/one_wave", 0xc1a0a56c5a21b17eULL},
    {"70B/tp1/many_waves", 0x9d9aa4276e7d4c22ULL},
    {"70B/tp2/below_one", 0xda452b553eb7bcd4ULL},
    {"70B/tp2/one_wave", 0xf8e500929f9010ceULL},
    {"70B/tp2/many_waves", 0xefe1d454342dd79eULL},
    {"70B/tp4/below_one", 0x72ec108a288c5da2ULL},
    {"70B/tp4/one_wave", 0x725f89948d0ccdfcULL},
    {"70B/tp4/many_waves", 0xad11f563c208e45fULL},
    {"70B/tp8/below_one", 0x9703d9ebbdb52272ULL},
    {"70B/tp8/one_wave", 0x8cc7aa819c153e75ULL},
    {"70B/tp8/many_waves", 0x3be11e1236d17f01ULL},
};
const std::vector<Pin> kGenerateTimeFields = {
    {"prefill_seconds", 0xec2cf59666e3344cULL},
    {"decode_seconds", 0x23c2f9a751f28298ULL},
    {"comm_seconds", 0xfaf1458481a9445fULL},
    {"waves", 0xc4e807a39b6e8a25ULL},
};

// Every GenTimeBreakdown field of the KV-cached generation model, bit for
// bit, across model sizes, generation TP degrees and three KV budgets per
// replica: below one full sequence (the wave batch clamps to 1), the raw
// bytes of the whole batch (about one wave), and many waves. A sequence of
// 1000 + 500 tokens fills 93.75 blocks but holds 94, so in the last two
// regimes the block rounding decides the wave count.
TEST(PerfModelPinTest, GenerateTimePinned) {
  constexpr int64_t kBatch = 64;
  constexpr int64_t kPrompt = 1000;
  constexpr int64_t kResponse = 500;
  constexpr double kSequenceTokens = kPrompt + kResponse;
  PinGrid grid;
  for (const char* model : {"7B", "13B", "34B", "70B"}) {
    const PerfModel perf(ModelSpec::ByName(model), ClusterSpec::WithGpus(8));
    for (const int tp : {1, 2, 4, 8}) {
      const GenParallelConfig gen{1, tp};
      const double sequence_bytes = kSequenceTokens * perf.KvBytesPerTokenPerGpu(gen);
      const struct {
        const char* label;
        double budget;
        int waves;
      } budgets[] = {
          {"below_one", sequence_bytes / 2.0, kBatch},
          // 6000 blocks hold 63 sequences of 94 blocks (64 of 93.75 tokens).
          {"one_wave", sequence_bytes * kBatch, 2},
          // 656 blocks hold 6 sequences (7 at 93 blocks each).
          {"many_waves", sequence_bytes * 7.0, 11},
      };
      for (const auto& [label, budget, waves] : budgets) {
        const GenTimeBreakdown out =
            perf.GenerateTime(gen, Devices(tp), kBatch, kPrompt, kResponse, budget,
                              /*use_kv_cache=*/true);
        const std::string name = std::string(model) + "/tp" + std::to_string(tp) + "/" + label;
        EXPECT_EQ(out.waves, waves) << name;
        grid.BeginCase(name);
        grid.Field("prefill_seconds", out.prefill_seconds);
        grid.Field("decode_seconds", out.decode_seconds);
        grid.Field("comm_seconds", out.comm_seconds);
        grid.Field("waves", out.waves);
      }
    }
  }
  ExpectPins(grid, kGenerateTimeCases, kGenerateTimeFields);
}

}  // namespace
}  // namespace hybridflow
