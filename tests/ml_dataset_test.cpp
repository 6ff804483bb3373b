#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"

namespace cmdare::ml {
namespace {

Dataset tiny() {
  Dataset d({"x1", "x2"});
  d.add({1.0, 10.0}, 100.0);
  d.add({2.0, 20.0}, 200.0);
  d.add({3.0, 30.0}, 300.0);
  d.add({4.0, 40.0}, 400.0);
  d.add({5.0, 50.0}, 500.0);
  return d;
}

TEST(Dataset, AddAndAccess) {
  const Dataset d = tiny();
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.feature_count(), 2u);
  EXPECT_DOUBLE_EQ(d.x(2)[1], 30.0);
  EXPECT_DOUBLE_EQ(d.y(4), 500.0);
}

TEST(Dataset, ValidatesArity) {
  Dataset d({"x"});
  EXPECT_THROW(d.add({1.0, 2.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(d.x(0), std::out_of_range);
  EXPECT_THROW(Dataset(std::vector<std::string>{}), std::invalid_argument);
}

TEST(Dataset, FeatureColumn) {
  const Dataset d = tiny();
  EXPECT_EQ(d.feature_column(1), (std::vector<double>{10, 20, 30, 40, 50}));
  EXPECT_THROW(d.feature_column(2), std::out_of_range);
}

TEST(Dataset, Subset) {
  const Dataset d = tiny();
  const std::vector<std::size_t> idx = {4, 0};
  const Dataset s = d.subset(idx);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.y(0), 500.0);
  EXPECT_DOUBLE_EQ(s.y(1), 100.0);
}

TEST(Dataset, SelectFeatures) {
  const Dataset d = tiny();
  const std::vector<std::size_t> features = {1};
  const Dataset s = d.select_features(features);
  EXPECT_EQ(s.feature_count(), 1u);
  EXPECT_EQ(s.feature_names()[0], "x2");
  EXPECT_DOUBLE_EQ(s.x(0)[0], 10.0);
  const std::vector<std::size_t> bad = {7};
  EXPECT_THROW(d.select_features(bad), std::out_of_range);
}

TEST(Split, PartitionsWithoutOverlapOrLoss) {
  Dataset d({"x"});
  for (int i = 0; i < 20; ++i) d.add({static_cast<double>(i)}, i);
  util::Rng rng(5);
  const TrainTestSplit split = train_test_split(d, 0.8, rng);
  EXPECT_EQ(split.train.size(), 16u);
  EXPECT_EQ(split.test.size(), 4u);
  std::set<double> seen;
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    seen.insert(split.train.x(i)[0]);
  }
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    EXPECT_EQ(seen.count(split.test.x(i)[0]), 0u);
    seen.insert(split.test.x(i)[0]);
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(Split, ValidatesArguments) {
  Dataset d({"x"});
  d.add({1.0}, 1.0);
  util::Rng rng(1);
  EXPECT_THROW(train_test_split(d, 0.8, rng), std::invalid_argument);
  d.add({2.0}, 2.0);
  EXPECT_THROW(train_test_split(d, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(d, 1.0, rng), std::invalid_argument);
}

TEST(Split, AlwaysLeavesBothSidesNonEmpty) {
  Dataset d({"x"});
  d.add({1.0}, 1.0);
  d.add({2.0}, 2.0);
  util::Rng rng(9);
  const TrainTestSplit split = train_test_split(d, 0.99, rng);
  EXPECT_GE(split.train.size(), 1u);
  EXPECT_GE(split.test.size(), 1u);
}

TEST(KFold, FoldsPartitionIndices) {
  util::Rng rng(3);
  const auto folds = kfold_indices(23, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<std::size_t> all;
  for (const auto& fold : folds) {
    EXPECT_GE(fold.size(), 4u);
    EXPECT_LE(fold.size(), 5u);
    for (std::size_t idx : fold) {
      EXPECT_TRUE(all.insert(idx).second) << "duplicate index";
    }
  }
  EXPECT_EQ(all.size(), 23u);
}

TEST(KFold, Validates) {
  util::Rng rng(1);
  EXPECT_THROW(kfold_indices(10, 1, rng), std::invalid_argument);
  EXPECT_THROW(kfold_indices(3, 5, rng), std::invalid_argument);
}

TEST(KFold, SplitComplementary) {
  Dataset d({"x"});
  for (int i = 0; i < 10; ++i) d.add({static_cast<double>(i)}, i);
  util::Rng rng(8);
  const auto folds = kfold_indices(10, 5, rng);
  const TrainTestSplit s = kfold_split(d, folds, 2);
  EXPECT_EQ(s.train.size() + s.test.size(), 10u);
  EXPECT_EQ(s.test.size(), folds[2].size());
  EXPECT_THROW(kfold_split(d, folds, 5), std::out_of_range);
}

TEST(MinMaxScaler, ScalesToUnitInterval) {
  Dataset d = tiny();
  MinMaxScaler scaler;
  scaler.fit(d);
  const auto lo = scaler.transform(std::vector<double>{1.0, 10.0});
  const auto hi = scaler.transform(std::vector<double>{5.0, 50.0});
  EXPECT_DOUBLE_EQ(lo[0], 0.0);
  EXPECT_DOUBLE_EQ(hi[0], 1.0);
  EXPECT_DOUBLE_EQ(hi[1], 1.0);
  const auto mid = scaler.transform(std::vector<double>{3.0, 30.0});
  EXPECT_DOUBLE_EQ(mid[0], 0.5);
}

TEST(MinMaxScaler, ConstantFeatureMapsToZero) {
  Dataset d({"x"});
  d.add({5.0}, 1.0);
  d.add({5.0}, 2.0);
  MinMaxScaler scaler;
  scaler.fit(d);
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{5.0})[0], 0.0);
}

TEST(MinMaxScaler, ScalarConvenience) {
  MinMaxScaler scaler;
  scaler.fit(std::vector<double>{0.0, 10.0});
  EXPECT_DOUBLE_EQ(scaler.transform_scalar(2.5), 0.25);
}

TEST(MinMaxScaler, Validates) {
  MinMaxScaler scaler;
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::logic_error);
  scaler.fit(std::vector<double>{1.0, 2.0});
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Metrics, KnownValues) {
  const std::vector<double> truth = {1.0, 2.0, 4.0};
  const std::vector<double> pred = {1.5, 1.5, 5.0};
  EXPECT_NEAR(mean_absolute_error(truth, pred), (0.5 + 0.5 + 1.0) / 3, 1e-12);
  EXPECT_NEAR(mean_absolute_percentage_error(truth, pred),
              100.0 * (0.5 + 0.25 + 0.25) / 3, 1e-12);
  EXPECT_NEAR(root_mean_squared_error(truth, pred),
              std::sqrt((0.25 + 0.25 + 1.0) / 3), 1e-12);
}

TEST(Metrics, PerfectPredictionR2IsOne) {
  const std::vector<double> truth = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(truth, truth), 1.0);
}

TEST(Metrics, Validation) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(mean_absolute_error(a, b), std::invalid_argument);
  const std::vector<double> zero = {0.0};
  const std::vector<double> one = {1.0};
  EXPECT_THROW(mean_absolute_percentage_error(zero, one),
               std::invalid_argument);
  const std::vector<double> flat = {2.0, 2.0};
  EXPECT_THROW(r_squared(flat, flat), std::invalid_argument);
}

}  // namespace
}  // namespace cmdare::ml
