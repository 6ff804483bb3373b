// Table II: comparison of step-time prediction models — GPU-agnostic
// univariate/multivariate OLS vs per-GPU OLS / polynomial-SVR / RBF-SVR,
// with the paper's split + k-fold CV + grid-search protocol.
#include "bench_common.hpp"

#include "cmdare/speed_modeling.hpp"

using namespace cmdare;

void bench::table2() {
  util::Rng rng(42);
  const auto measurements = core::measure_step_times(
      nn::all_models(), {cloud::GpuType::kK80, cloud::GpuType::kP100}, rng,
      1500);
  util::Rng eval_rng(1);
  const auto evals = core::evaluate_step_time_models(measurements, eval_rng);

  // Paper values (k-fold MAE, test MAE) in the same row order.
  const double paper[][2] = {
      {0.072, 0.068}, {0.103, 0.093}, {0.065, 0.068}, {0.035, 0.041},
      {0.026, 0.031}, {0.029, 0.031}, {0.019, 0.020}, {0.012, 0.016},
  };

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

  // Headline comparisons the paper calls out.
  double best_agnostic = 1e9, best_specific = 1e9;
  for (const auto& e : evals) {
    if (e.name.find("GPU-agnostic") != std::string::npos) {
      best_agnostic = std::min(best_agnostic, e.test_mae);
    } else {
      best_specific = std::min(best_specific, e.test_mae);
    }
  }
  std::printf("\nbest GPU-specific test MAE %.3f vs best GPU-agnostic %.3f\n",
              best_specific, best_agnostic);
  bench::print_note(
      "GPU-specific models beat GPU-agnostic ones and the RBF-kernel SVR "
      "gives the best per-GPU fit (paper: K80 RBF test MAPE 9.02%).");
}
