// Table IV: comparison of checkpoint-time prediction models — univariate
// OLS on S_c, multivariate OLS on (S_d, S_m), two-component PCA + OLS on
// (S_d, S_m, S_i), and RBF-kernel SVR on S_c. Also reproduces the
// Section IV-C worked example: ResNet-32 trained to 64K steps with a 4K
// checkpoint interval.
#include "bench_common.hpp"

#include "cmdare/checkpoint_modeling.hpp"
#include "ml/linreg.hpp"

using namespace cmdare;

void bench::table4() {
  util::Rng rng(44);
  const auto measurements =
      core::measure_checkpoint_times(nn::all_models(), rng, 5);
  util::Rng eval_rng(4);
  const auto evals = core::evaluate_checkpoint_models(measurements, eval_rng);

  const double paper[][2] = {
      {0.345, 0.356}, {0.291, 0.353}, {0.286, 0.354}, {0.198, 0.245}};

  util::Table table({"Regression Model", "Input Feature", "K-fold MAE",
                     "Test MAE", "Test MAPE", "paper k-fold", "paper test"});
  for (std::size_t i = 0; i < evals.size(); ++i) {
    const auto& e = evals[i];
    table.add_row({e.name, e.features,
                   util::format_mean_sd(e.kfold_mae, e.kfold_mae_sd, 3),
                   util::format_double(e.test_mae, 3),
                   util::format_double(e.test_mape, 1) + "%",
                   util::format_double(paper[i][0], 3),
                   util::format_double(paper[i][1], 3)});
  }
  table.render(std::cout);

  // Worked example: linear model predicting ResNet-32's checkpoint time;
  // the paper reports actual 3.83 s vs predicted 3.96 s (3.4% off).
  ml::LinearRegression linear;
  linear.fit(core::checkpoint_dataset_total(measurements));
  const auto r32 = core::measure_checkpoint_times({nn::resnet32()}, rng, 5);
  const double predicted =
      linear.predict(std::vector<double>{r32[0].total_mb});
  std::printf(
      "\nResNet-32, 64K steps @ 4K interval: actual ckpt %.2f s vs linear "
      "prediction %.2f s (%.1f%% off; paper: 3.83 vs 3.96, 3.4%%)\n",
      r32[0].mean_seconds, predicted,
      100.0 * std::abs(predicted - r32[0].mean_seconds) /
          r32[0].mean_seconds);
  std::printf(
      "total checkpoint overhead over the run: 16 checkpoints x %.2f s = "
      "%.1f s (hours-long training => negligible accumulation)\n",
      predicted, 16 * predicted);

  bench::print_note(
      "the RBF SVR fits best, but all four models are usable; simpler "
      "models retrain faster, which matters when monitoring a live cluster "
      "(Section IV-C).");
}
