#include <gtest/gtest.h>

#include "src/baselines/system_builder.h"
#include "src/mapping/device_mapper.h"
#include "tests/golden_pins.h"

namespace hybridflow {
namespace {

DeviceMapper MakeMapper(RlhfAlgorithm algorithm, const ModelSpec& model,
                        const RlhfWorkloadSpec& workload = RlhfWorkloadSpec()) {
  return DeviceMapper(DataflowModels(algorithm, model, model), workload,
                      ClusterSpec::WithGpus(8));
}

TEST(DeviceMapperTest, PpoPlacementCountIsBellNumber) {
  // 4 models -> Bell(4) = 15 placements (§6).
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8);
  EXPECT_EQ(result.placements_examined, 15);
}

TEST(DeviceMapperTest, SafeRlhfPlacementCountIsBellFive) {
  // 5 models -> Bell(5) = 52 placements.
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kSafeRlhf, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8);
  EXPECT_EQ(result.placements_examined, 52);
}

TEST(DeviceMapperTest, CanonicalPlacementsExamineOne) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  for (PlacementKind kind :
       {PlacementKind::kColocate, PlacementKind::kStandalone, PlacementKind::kSplit}) {
    MappingResult result = mapper.Map(8, kind);
    EXPECT_EQ(result.placements_examined, 1) << PlacementKindName(kind);
  }
}

TEST(DeviceMapperTest, ColocatePutsEverythingInOneSet) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8, PlacementKind::kColocate);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.sets.size(), 1u);
  EXPECT_EQ(result.sets[0].gpus, 8);
  EXPECT_EQ(result.sets[0].model_names.size(), 4u);
}

TEST(DeviceMapperTest, StandaloneGivesEveryModelItsOwnSet) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8, PlacementKind::kStandalone);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.sets.size(), 4u);
  int total = 0;
  for (const ColocatedSetResult& set : result.sets) {
    total += set.gpus;
  }
  EXPECT_EQ(total, 8);
}

TEST(DeviceMapperTest, SplitPairsActorWithReference) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(16, PlacementKind::kSplit);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.sets.size(), 2u);
  const int actor_set = result.SetOf("actor");
  EXPECT_EQ(result.SetOf("reference"), actor_set);
  EXPECT_NE(result.SetOf("critic"), actor_set);
  EXPECT_NE(result.SetOf("reward"), actor_set);
}

TEST(DeviceMapperTest, AutoIsNeverWorseThanCanonicalPlacements) {
  // Algorithm 1 searches a superset of the canonical placements, so its
  // estimate must be at least as good.
  for (const ModelSpec& model : {ModelSpec::Llama7B(), ModelSpec::Llama13B()}) {
    DeviceMapper mapper(DataflowModels(RlhfAlgorithm::kPpo, model, model),
                        RlhfWorkloadSpec(), ClusterSpec::WithGpus(16));
    MappingResult with_auto = mapper.Map(16, PlacementKind::kAuto);
    ASSERT_TRUE(with_auto.feasible);
    for (PlacementKind kind :
         {PlacementKind::kColocate, PlacementKind::kStandalone, PlacementKind::kSplit}) {
      MappingResult canonical = mapper.Map(16, kind);
      if (canonical.feasible) {
        EXPECT_LE(with_auto.est_iteration_seconds,
                  canonical.est_iteration_seconds * (1.0 + 1e-9))
            << model.name << " " << PlacementKindName(kind);
      }
    }
  }
}

TEST(DeviceMapperTest, InfeasibleWhenModelCannotFit) {
  // 70B PPO on 2 GPUs: 4 models of training state cannot fit.
  DeviceMapper mapper(DataflowModels(RlhfAlgorithm::kPpo, ModelSpec::Llama70B(),
                                     ModelSpec::Llama70B()),
                      RlhfWorkloadSpec(), ClusterSpec::WithGpus(2));
  MappingResult result = mapper.Map(2);
  EXPECT_FALSE(result.feasible);
}

TEST(DeviceMapperTest, CacheEliminatesRepeatedSimulations) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult first = mapper.Map(8);
  const int64_t simulations_after_first = first.simulations;
  MappingResult second = mapper.Map(8);
  // A second identical search is almost entirely cache hits.
  EXPECT_LT(second.simulations - simulations_after_first,
            simulations_after_first / 4);
  EXPECT_GT(second.cache_hits, first.cache_hits);
}

TEST(DeviceMapperTest, AutoParallelRespectsMemory) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama70B());
  MappedModelDesc actor{"actor", ModelSpec::Llama70B(), true, false, true};
  ModelMapping mapping = mapper.AutoParallel(actor, 32);
  ASSERT_TRUE(mapping.feasible);
  // 18 B/param * 69e9 / mp <= 0.85 * 80 GB -> mp >= ~19.
  EXPECT_GE(mapping.train.model_parallel_size(), 19);
}

TEST(DeviceMapperTest, AutoParallelPrefersSmallerGenTp) {
  // §8.4: generation runs best with a smaller TP size than training.
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappedModelDesc actor{"actor", ModelSpec::Llama7B(), true, false, true};
  ModelMapping mapping = mapper.AutoParallel(actor, 16);
  ASSERT_TRUE(mapping.feasible);
  EXPECT_LE(mapping.gen.tp * mapping.gen.pp, mapping.train.model_parallel_size());
}

TEST(DeviceMapperTest, MinAllocGrowsWithModelSize) {
  DeviceMapper small = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  DeviceMapper big(DataflowModels(RlhfAlgorithm::kPpo, ModelSpec::Llama70B(),
                                  ModelSpec::Llama70B()),
                   RlhfWorkloadSpec(), ClusterSpec::WithGpus(128));
  EXPECT_LE(small.MinAlloc({0}, 8), 4);
  EXPECT_GT(big.MinAlloc({0}, 128), 8);
}

TEST(DeviceMapperTest, ReportsSearchStatistics) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8);
  EXPECT_GT(result.simulations, 0);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.est_iteration_seconds, 0.0);
}

TEST(DeviceMapperTest, SetsCoverDisjointDeviceRanges) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8, PlacementKind::kStandalone);
  ASSERT_TRUE(result.feasible);
  int expected_first = 0;
  for (const ColocatedSetResult& set : result.sets) {
    EXPECT_EQ(set.first_device, expected_first);
    expected_first += set.gpus;
  }
  EXPECT_EQ(expected_first, 8);
}

uint64_t StringBits(const std::string& text) {
  Fnv fnv;
  for (char c : text) {
    fnv.Mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return fnv.state;
}

const std::vector<Pin> kFig16MappingCases = {
    {"7Bx16", 0x10a30b3f22c838afULL},
    {"13Bx32", 0x78ef30f44b3fcf8cULL},
};
const std::vector<Pin> kFig16MappingFields = {
    {"feasible", 0x581cd0fa58d99645ULL},
    {"set", 0xb972f7b63a41008fULL},
    {"model.actor", 0x25a88f1aed88c121ULL},
    {"model.critic", 0xb35a031852154947ULL},
    {"model.reference", 0xfe235e2fba9cfe97ULL},
    {"model.reward", 0x95a6b3cb2beae81fULL},
    {"est_iteration_seconds", 0xea48564ada2adc49ULL},
    {"simulations", 0xad25e5c79b70a8b9ULL},
    {"cache_hits", 0x5ec2adf1673dca1aULL},
    {"placements_examined", 0x7830a97489bc6b05ULL},
};

// Algorithm 1's full result for the two smallest Fig 16 cases, bit for
// bit: the chosen placement, every model's training and generation
// strategy and stage estimates, and the search statistics (everything but
// wall time).
TEST(DeviceMapperTest, Fig16MappingsPinned) {
  PinGrid grid;
  for (const auto& [model, gpus] : {std::pair<const char*, int>{"7B", 16}, {"13B", 32}}) {
    const ModelSpec spec = ModelSpec::ByName(model);
    DeviceMapper mapper(DataflowModels(RlhfAlgorithm::kPpo, spec, spec), RlhfWorkloadSpec(),
                        ClusterSpec::WithGpus(gpus));
    const MappingResult result = mapper.Map(gpus);
    grid.BeginCase(std::string(model) + "x" + std::to_string(gpus));
    grid.Field("feasible", result.feasible);
    for (const ColocatedSetResult& set : result.sets) {
      Fnv fnv;
      for (const std::string& name : set.model_names) {
        fnv.Mix(StringBits(name));
      }
      fnv.Mix(static_cast<uint64_t>(set.gpus));
      fnv.Mix(static_cast<uint64_t>(set.first_device));
      grid.Field("set", fnv.state);
    }
    for (const auto& [name, mapping] : result.models) {
      Fnv fnv;
      fnv.Mix(static_cast<uint64_t>(mapping.feasible));
      for (int v : {mapping.train.pp, mapping.train.tp, mapping.train.dp, mapping.gen.pp,
                    mapping.gen.tp, static_cast<int>(mapping.backend)}) {
        fnv.Mix(static_cast<uint64_t>(v));
      }
      for (double seconds : mapping.stage_seconds) {
        fnv.Mix(Bits(seconds));
      }
      grid.Field("model." + name, fnv.state);
    }
    grid.Field("est_iteration_seconds", result.est_iteration_seconds);
    grid.Field("simulations", result.simulations);
    grid.Field("cache_hits", result.cache_hits);
    grid.Field("placements_examined", result.placements_examined);
  }
  ExpectPins(grid, kFig16MappingCases, kFig16MappingFields);
}

}  // namespace
}  // namespace hybridflow
