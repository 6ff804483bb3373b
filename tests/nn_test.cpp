#include <gtest/gtest.h>

#include <set>

#include "nn/checkpoint_size.hpp"
#include "nn/layer.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"

namespace cmdare::nn {
namespace {

TEST(Layer, Conv2dFlopsAndParams) {
  // 3x3 conv, 16 -> 32 channels on a 32x32 map, stride 1:
  // FLOPs = 2 * 32*32 * 32 * 16*3*3 = 9,437,184; params = 16*32*9 = 4608.
  const Conv2d conv{16, 32, 3, 1, 32, 32, false};
  EXPECT_EQ(forward_flops(conv), 9437184u);
  EXPECT_EQ(parameter_count(conv), 4608u);
  EXPECT_EQ(tensor_count(conv), 1);
}

TEST(Layer, Conv2dStrideShrinksOutput) {
  const Conv2d s1{16, 16, 3, 1, 32, 32, false};
  const Conv2d s2{16, 16, 3, 2, 32, 32, false};
  EXPECT_EQ(forward_flops(s2) * 4, forward_flops(s1));
  EXPECT_EQ(parameter_count(s1), parameter_count(s2));
}

TEST(Layer, Conv2dBiasAddsParamsAndTensor) {
  const Conv2d no_bias{8, 8, 3, 1, 8, 8, false};
  const Conv2d bias{8, 8, 3, 1, 8, 8, true};
  EXPECT_EQ(parameter_count(bias), parameter_count(no_bias) + 8);
  EXPECT_EQ(tensor_count(bias), 2);
}

TEST(Layer, DenseFlopsAndParams) {
  const Dense dense{128, 10, true};
  EXPECT_EQ(forward_flops(dense), 2u * 128 * 10 + 10);
  EXPECT_EQ(parameter_count(dense), 128u * 10 + 10);
  EXPECT_EQ(tensor_count(dense), 2);
}

TEST(Layer, BatchNormHasFourTensors) {
  const BatchNorm bn{32, 16, 16};
  EXPECT_EQ(parameter_count(bn), 4u * 32);
  EXPECT_EQ(tensor_count(bn), 4);
  EXPECT_EQ(forward_flops(bn), 4u * 32 * 16 * 16);
}

TEST(Layer, PoolAndElementwiseHaveNoParams) {
  const Pool pool{64, 8, 8, 8, 8};
  const Elementwise ew{64, 8, 8, 3};
  EXPECT_EQ(parameter_count(pool), 0u);
  EXPECT_EQ(parameter_count(ew), 0u);
  EXPECT_EQ(tensor_count(pool), 0);
  EXPECT_EQ(forward_flops(ew), 3u * 64 * 8 * 8);
}

TEST(Layer, DescribeIsHumanReadable) {
  const Layer conv = Conv2d{3, 16, 3, 1, 32, 32};
  EXPECT_EQ(describe(conv), "conv3x3 3->16 /1 @32x32");
  const Layer dense = Dense{64, 10};
  EXPECT_EQ(describe(dense), "dense 64->10");
}

TEST(CnnModel, AggregatesLayerQuantities) {
  std::vector<Layer> layers = {Conv2d{3, 8, 3, 1, 32, 32},
                               BatchNorm{8, 32, 32}, Dense{8, 10}};
  const CnnModel model("tiny", Architecture::kCustom, std::move(layers));
  EXPECT_EQ(model.parameter_count(),
            3u * 8 * 9 + 4u * 8 + (8u * 10 + 10));
  EXPECT_EQ(model.tensor_count(), 1 + 4 + 2);
  EXPECT_EQ(model.training_flops_per_image(),
            3 * model.forward_flops_per_image());
}

TEST(CnnModel, ValidatesConstruction) {
  EXPECT_THROW(CnnModel("", Architecture::kCustom,
                        {Layer(Dense{1, 1})}),
               std::invalid_argument);
  EXPECT_THROW(CnnModel("x", Architecture::kCustom, {}),
               std::invalid_argument);
}

TEST(ModelZoo, CanonicalComplexitiesMatchTableI) {
  // Table I: 0.59, 1.54, 2.41, 21.3 GFLOPs. The layer-derived values must
  // land within 3%.
  EXPECT_NEAR(resnet15().gflops(), 0.59, 0.59 * 0.03);
  EXPECT_NEAR(resnet32().gflops(), 1.54, 1.54 * 0.03);
  EXPECT_NEAR(shake_shake_small().gflops(), 2.41, 2.41 * 0.03);
  EXPECT_NEAR(shake_shake_big().gflops(), 21.3, 21.3 * 0.03);
}

TEST(ModelZoo, CanonicalArchitectures) {
  EXPECT_EQ(resnet15().architecture(), Architecture::kResNet);
  EXPECT_EQ(shake_shake_big().architecture(), Architecture::kShakeShake);
}

TEST(ModelZoo, TwentyModelsWithUniqueNames) {
  const auto models = all_models();
  EXPECT_EQ(models.size(), 20u);
  std::set<std::string> names;
  for (const auto& m : models) names.insert(m.name());
  EXPECT_EQ(names.size(), 20u);
}

TEST(ModelZoo, CustomModelsSpanComplexityRange) {
  const auto models = custom_models();
  EXPECT_EQ(models.size(), 16u);
  double lo = 1e9, hi = 0.0;
  for (const auto& m : models) {
    lo = std::min(lo, m.gflops());
    hi = std::max(hi, m.gflops());
  }
  EXPECT_LT(lo, 0.3);   // lighter than ResNet-15
  EXPECT_GT(hi, 20.0);  // heavier than Shake-Shake Small
}

TEST(ModelZoo, DeeperResNetHasMoreFlops) {
  const CnnModel shallow = make_resnet("a", 2, 16);
  const CnnModel deep = make_resnet("b", 5, 16);
  EXPECT_GT(deep.gflops(), shallow.gflops());
  EXPECT_GT(deep.parameter_count(), shallow.parameter_count());
  EXPECT_GT(deep.tensor_count(), shallow.tensor_count());
}

TEST(ModelZoo, WiderNetworkScalesQuadratically) {
  const CnnModel narrow = make_resnet("a", 3, 16);
  const CnnModel wide = make_resnet("b", 3, 32);
  const double ratio = wide.gflops() / narrow.gflops();
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(ModelZoo, LookupByName) {
  const CnnModel m = model_by_name("resnet-32");
  EXPECT_EQ(m.name(), "resnet-32");
  EXPECT_THROW(model_by_name("alexnet"), std::invalid_argument);
}

TEST(ModelZoo, LookupsShareOneTable) {
  EXPECT_EQ(&all_models(), &all_models());
  EXPECT_EQ(&model_by_name("resnet-32"), &all_models()[1]);
}

TEST(ModelZoo, BuildersValidate) {
  EXPECT_THROW(make_resnet("x", 0, 16), std::invalid_argument);
  EXPECT_THROW(make_shake_shake("x", 4, 0), std::invalid_argument);
}

TEST(CheckpointSizes, DataFileTracksParameters) {
  const auto small = checkpoint_sizes(resnet15());
  const auto big = checkpoint_sizes(shake_shake_big());
  EXPECT_GT(big.data_bytes, small.data_bytes);
  // Data file is roughly 4 bytes per parameter.
  EXPECT_NEAR(static_cast<double>(small.data_bytes),
              4.0 * static_cast<double>(resnet15().parameter_count()),
              0.05 * static_cast<double>(small.data_bytes));
}

TEST(CheckpointSizes, IndexAndMetaTrackTensorCount) {
  const CnnModel few = make_resnet("few", 2, 16);
  const CnnModel many = make_resnet("many", 9, 16);
  const auto a = checkpoint_sizes(few);
  const auto b = checkpoint_sizes(many);
  EXPECT_GT(b.index_bytes, a.index_bytes);
  EXPECT_GT(b.meta_bytes, a.meta_bytes);
  // Same tensor count => same index/meta sizes regardless of width.
  const CnnModel wide = make_resnet("wide", 2, 64);
  const auto c = checkpoint_sizes(wide);
  EXPECT_EQ(a.index_bytes, c.index_bytes);
  EXPECT_EQ(a.meta_bytes, c.meta_bytes);
  EXPECT_GT(c.data_bytes, a.data_bytes);
}

TEST(CheckpointSizes, TotalIsSum) {
  const auto s = checkpoint_sizes(resnet32());
  EXPECT_EQ(s.total_bytes(), s.data_bytes + s.index_bytes + s.meta_bytes);
}

TEST(CnnModel, SummaryMentionsKeyFacts) {
  const std::string s = resnet32().summary();
  EXPECT_NE(s.find("resnet-32"), std::string::npos);
  EXPECT_NE(s.find("GFLOPs"), std::string::npos);
}

}  // namespace
}  // namespace cmdare::nn
