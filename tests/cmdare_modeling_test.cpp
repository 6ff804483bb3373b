#include <gtest/gtest.h>

#include "cmdare/checkpoint_modeling.hpp"
#include "cmdare/speed_modeling.hpp"
#include "nn/model_zoo.hpp"

namespace cmdare::core {
namespace {

class ModelingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(42);
    step_measurements_ = new std::vector<StepTimeMeasurement>(
        measure_step_times(nn::all_models(),
                           {cloud::GpuType::kK80, cloud::GpuType::kP100},
                           rng, 700));
    util::Rng ckpt_rng(43);
    ckpt_measurements_ = new std::vector<CheckpointMeasurement>(
        measure_checkpoint_times(nn::all_models(), ckpt_rng, 5));
  }
  static void TearDownTestSuite() {
    delete step_measurements_;
    delete ckpt_measurements_;
    step_measurements_ = nullptr;
    ckpt_measurements_ = nullptr;
  }

  static std::vector<StepTimeMeasurement>* step_measurements_;
  static std::vector<CheckpointMeasurement>* ckpt_measurements_;
};

std::vector<StepTimeMeasurement>* ModelingTest::step_measurements_ = nullptr;
std::vector<CheckpointMeasurement>* ModelingTest::ckpt_measurements_ =
    nullptr;

TEST_F(ModelingTest, TableIIProtocolProducesEightRows) {
  util::Rng rng(1);
  const auto evals = evaluate_step_time_models(*step_measurements_, rng);
  EXPECT_EQ(evals.size(), 8u);
  for (const auto& e : evals) {
    EXPECT_GT(e.kfold_mae, 0.0) << e.name;
    EXPECT_GT(e.test_mae, 0.0) << e.name;
  }
}

TEST_F(ModelingTest, GpuSpecificModelsBeatGpuAgnostic) {
  // Table II's headline: GPU-specific models achieve lower error.
  util::Rng rng(2);
  const auto evals = evaluate_step_time_models(*step_measurements_, rng);
  double best_agnostic = 1e9, best_specific = 1e9;
  for (const auto& e : evals) {
    if (e.name.find("GPU-agnostic") != std::string::npos) {
      best_agnostic = std::min(best_agnostic, e.test_mae);
    } else {
      best_specific = std::min(best_specific, e.test_mae);
    }
  }
  EXPECT_LT(best_specific, best_agnostic);
}

TEST_F(ModelingTest, RbfSvrIsBestPerGpuFamily) {
  // Canonical experiment seed (the same protocol `reproduce table2` prints).
  // With only 20 models, fine-grained model ordering is sensitive to the
  // random split; the cross-seed robustness test below covers variation.
  util::Rng rng(1);
  const auto evals = evaluate_step_time_models(*step_measurements_, rng);
  const auto find = [&](const std::string& name) {
    for (const auto& e : evals) {
      if (e.name == name) return e;
    }
    throw std::logic_error("missing eval: " + name);
  };
  // RBF beats plain univariate OLS for both GPU-specific families.
  EXPECT_LT(find("SVR RBF Kernel, K80").kfold_mae,
            find("Univariate, K80").kfold_mae);
  EXPECT_LT(find("SVR RBF Kernel, P100").kfold_mae,
            find("Univariate, P100").kfold_mae);
}

TEST_F(ModelingTest, GpuSpecificMapeBelowPaperBallpark) {
  // Paper: K80 RBF-SVR test MAPE 9.02% (the paper quotes MAPE for the
  // K80 RBF model and the P100 polynomial model only). MAPE on P100 is
  // dominated by the very fast models (tens of ms), so it gets more
  // headroom. Canonical experiment seed, as in `reproduce table2`.
  util::Rng rng(1);
  const auto evals = evaluate_step_time_models(*step_measurements_, rng);
  for (const auto& e : evals) {
    if (e.name == "SVR RBF Kernel, K80") {
      EXPECT_LT(e.test_mape, 20.0);
    }
    if (e.name == "SVR RBF Kernel, P100") {
      EXPECT_LT(e.test_mape, 40.0);
    }
  }
}

TEST_F(ModelingTest, RbfSvrRobustAcrossSeeds) {
  // Across independent split/fold seeds the K80 RBF SVR should beat the
  // K80 univariate OLS in k-fold MAE in the majority of runs.
  int wins = 0;
  for (std::uint64_t seed : {2, 3, 4}) {
    util::Rng rng(seed);
    const auto evals = evaluate_step_time_models(*step_measurements_, rng);
    double rbf = 0.0, uni = 0.0;
    for (const auto& e : evals) {
      if (e.name == "SVR RBF Kernel, K80") rbf = e.kfold_mae;
      if (e.name == "Univariate, K80") uni = e.kfold_mae;
    }
    if (rbf < uni) ++wins;
  }
  EXPECT_GE(wins, 2);
}

TEST_F(ModelingTest, PredictorInterpolatesUnseenComplexities) {
  // Train on all models except resnet-32, then predict it.
  std::vector<StepTimeMeasurement> train_set;
  StepTimeMeasurement held_out;
  bool found = false;
  for (const auto& m : *step_measurements_) {
    if (m.model == "resnet-32" && m.gpu == cloud::GpuType::kK80) {
      held_out = m;
      found = true;
    }
    if (m.model != "resnet-32") train_set.push_back(m);
  }
  ASSERT_TRUE(found);
  util::Rng rng(5);
  const StepTimePredictor predictor = StepTimePredictor::train(train_set, rng);
  const double predicted =
      predictor.predict_step_seconds(cloud::GpuType::kK80, held_out.gflops);
  EXPECT_NEAR(predicted, held_out.mean_step_seconds,
              held_out.mean_step_seconds * 0.15);
}

TEST_F(ModelingTest, PredictorSpeedIsInverseOfStepTime) {
  util::Rng rng(6);
  const StepTimePredictor predictor =
      StepTimePredictor::train(*step_measurements_, rng);
  const double step =
      predictor.predict_step_seconds(cloud::GpuType::kP100, 1.5);
  EXPECT_NEAR(predictor.predict_speed(cloud::GpuType::kP100, 1.5),
              1.0 / step, 1e-12);
}

TEST_F(ModelingTest, PredictorRejectsUntrainedGpu) {
  util::Rng rng(7);
  const StepTimePredictor predictor =
      StepTimePredictor::train(*step_measurements_, rng);
  EXPECT_TRUE(predictor.supports(cloud::GpuType::kK80));
  EXPECT_FALSE(predictor.supports(cloud::GpuType::kV100));  // not measured
  EXPECT_THROW(predictor.predict_step_seconds(cloud::GpuType::kV100, 1.0),
               std::invalid_argument);
}

TEST_F(ModelingTest, TableIvProtocolProducesFourRows) {
  util::Rng rng(8);
  const auto evals = evaluate_checkpoint_models(*ckpt_measurements_, rng);
  ASSERT_EQ(evals.size(), 4u);
  EXPECT_EQ(evals[0].name, "Univariate");
  EXPECT_EQ(evals[3].name, "SVR RBF kernel");
}

TEST_F(ModelingTest, CheckpointSvrCompetitive) {
  // Table IV: the RBF SVR yields the best k-fold MAE; require it to be at
  // least competitive with the univariate OLS in our reproduction.
  util::Rng rng(9);
  const auto evals = evaluate_checkpoint_models(*ckpt_measurements_, rng);
  EXPECT_LT(evals[3].kfold_mae, evals[0].kfold_mae * 1.1);
}

TEST_F(ModelingTest, CheckpointMapeNearPaperHeadline) {
  // Paper: 5.38% test MAPE for the SVR; allow generous headroom.
  util::Rng rng(10);
  const auto evals = evaluate_checkpoint_models(*ckpt_measurements_, rng);
  EXPECT_LT(evals[3].test_mape, 12.0);
}

TEST_F(ModelingTest, CheckpointPredictorAccurateOnTrainingModels) {
  util::Rng rng(11);
  const CheckpointTimePredictor predictor =
      CheckpointTimePredictor::train(*ckpt_measurements_, rng);
  for (const auto& m : *ckpt_measurements_) {
    const double predicted = predictor.predict_seconds_for_mb(m.total_mb);
    EXPECT_NEAR(predicted, m.mean_seconds, m.mean_seconds * 0.15) << m.model;
  }
}

TEST_F(ModelingTest, CheckpointPredictorWorksFromModel) {
  util::Rng rng(12);
  const CheckpointTimePredictor predictor =
      CheckpointTimePredictor::train(*ckpt_measurements_, rng);
  const double seconds = predictor.predict_seconds(nn::resnet32());
  EXPECT_NEAR(seconds, 3.84, 0.6);  // paper's measured ResNet-32 value
}

TEST(Modeling, EvaluateRejectsEmptyInput) {
  util::Rng rng(13);
  EXPECT_THROW(evaluate_step_time_models({}, rng), std::invalid_argument);
  EXPECT_THROW(evaluate_checkpoint_models({}, rng), std::invalid_argument);
}

}  // namespace
}  // namespace cmdare::core
