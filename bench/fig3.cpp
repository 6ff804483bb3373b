// Figure 3: average step time vs (a) normalized computation ratio
// C_norm = C_m / C_gpu and (b) normalized model complexity C_m, for all
// twenty CNN models on K80 and P100 workers (1400-step averages).
#include "bench_common.hpp"

#include "cmdare/measurement.hpp"

using namespace cmdare;

void bench::fig3() {
  util::Rng rng(3);
  const auto measurements = core::measure_step_times(
      nn::all_models(), {cloud::GpuType::kK80, cloud::GpuType::kP100}, rng,
      1500);

  // Min-max normalization over the whole measurement set, as in the paper.
  double c_lo = 1e18, c_hi = -1e18, r_lo = 1e18, r_hi = -1e18;
  for (const auto& m : measurements) {
    c_lo = std::min(c_lo, m.gflops);
    c_hi = std::max(c_hi, m.gflops);
    r_lo = std::min(r_lo, m.computation_ratio());
    r_hi = std::max(r_hi, m.computation_ratio());
  }

  util::Table table({"model", "GPU", "C_m (norm)", "C_norm", "step time (s)"});
  std::vector<double> cnorm_k80, step_k80, cm_k80;
  std::vector<double> cnorm_p100, step_p100, cm_p100;
  for (const auto& m : measurements) {
    const double cm_n = (m.gflops - c_lo) / (c_hi - c_lo);
    const double cr_n =
        (m.computation_ratio() - r_lo) / (r_hi - r_lo);
    table.add_row({m.model, cloud::gpu_name(m.gpu),
                   util::format_double(cm_n, 3), util::format_double(cr_n, 3),
                   util::format_double(m.mean_step_seconds, 4)});
    if (m.gpu == cloud::GpuType::kK80) {
      cm_k80.push_back(cm_n);
      cnorm_k80.push_back(cr_n);
      step_k80.push_back(m.mean_step_seconds);
    } else {
      cm_p100.push_back(cm_n);
      cnorm_p100.push_back(cr_n);
      step_p100.push_back(m.mean_step_seconds);
    }
  }
  table.render(std::cout);

  std::printf("\nPearson correlation (step time vs feature):\n");
  std::printf("  K80 : C_m %.3f   C_norm %.3f\n",
              stats::pearson_correlation(cm_k80, step_k80),
              stats::pearson_correlation(cnorm_k80, step_k80));
  std::printf("  P100: C_m %.3f   C_norm %.3f\n",
              stats::pearson_correlation(cm_p100, step_p100),
              stats::pearson_correlation(cnorm_p100, step_p100));

  // The paper's key visual: both GPUs collapse onto one trend under
  // C_norm, but separate cleanly under C_m.
  std::vector<double> cnorm_all = cnorm_k80, step_all = step_k80;
  cnorm_all.insert(cnorm_all.end(), cnorm_p100.begin(), cnorm_p100.end());
  step_all.insert(step_all.end(), step_p100.begin(), step_p100.end());
  std::printf("  combined trend under C_norm: %.3f (single trend line)\n",
              stats::pearson_correlation(cnorm_all, step_all));

  bench::print_note(
      "strong positive correlation in every panel; C_norm merges the two "
      "GPUs onto one line while C_m separates them, motivating per-GPU "
      "models (Table II).");
}
