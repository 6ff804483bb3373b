// Figure 5: checkpoint duration vs checkpoint size for all twenty CNN
// models — five checkpoints each on a K80 chief, reporting the mean and
// the coefficient of variation (the paper's circle sizes).
#include "bench_common.hpp"

#include "cmdare/measurement.hpp"

using namespace cmdare;

void bench::fig5() {
  util::Rng rng(5);
  auto measurements =
      core::measure_checkpoint_times(nn::all_models(), rng, 5);
  std::sort(measurements.begin(), measurements.end(),
            [](const auto& a, const auto& b) { return a.total_mb < b.total_mb; });

  util::Table table({"model", "S_d (MB)", "S_m (MB)", "S_i (MB)",
                     "S_c (MB)", "duration (s)", "CoV"});
  double cov_lo = 1.0, cov_hi = 0.0;
  for (const auto& m : measurements) {
    table.add_row({m.model, util::format_double(m.data_mb, 2),
                   util::format_double(m.meta_mb, 2),
                   util::format_double(m.index_mb, 3),
                   util::format_double(m.total_mb, 2),
                   util::format_mean_sd(m.mean_seconds, m.sd_seconds, 2),
                   util::format_double(m.cov, 3)});
    cov_lo = std::min(cov_lo, m.cov);
    cov_hi = std::max(cov_hi, m.cov);
  }
  table.render(std::cout);

  std::printf("\nCoV range: %.3f .. %.3f (paper: 0.018 .. 0.073)\n", cov_lo,
              cov_hi);
  std::printf("ResNet-32 checkpoint: %.2f s (paper: 3.84 +/- 0.25 s)\n",
              core::measure_checkpoint_times({nn::resnet32()}, rng, 5)[0]
                  .mean_seconds);
  bench::print_note(
      "duration grows with checkpoint size with low per-model variance; "
      "training and checkpointing are sequential, so the overhead adds "
      "directly to training time (Section IV-B).");
}
