// Figure 12: parameter-server-based bottleneck detection and mitigation —
// cluster speed with one vs two parameter servers for ResNet-15 and
// ResNet-32 on growing P100 clusters, plus the Section VI-B detector
// (30-second warmup, 6.7% threshold).
#include "bench_common.hpp"

#include "cmdare/bottleneck.hpp"
#include "cmdare/profiler.hpp"

using namespace cmdare;

void bench::fig12() {
  for (const char* name : {"resnet-15", "resnet-32"}) {
    const nn::CnnModel model = nn::model_by_name(name);
    std::printf("\n%s:\n", name);
    util::Table table({"#P100 workers", "1 PS (steps/s)", "2 PS (steps/s)",
                       "improvement"});
    std::uint64_t seed = 120;
    double best_improvement = 0.0;
    for (int n : {2, 4, 6, 8}) {
      const long steps = 1200L * n + 1000;
      const double one =
          bench::run_cluster_speed(model, 0, n, 0, 1, steps, seed++);
      const double two =
          bench::run_cluster_speed(model, 0, n, 0, 2, steps, seed++);
      const double improvement = 100.0 * (two / one - 1.0);
      best_improvement = std::max(best_improvement, improvement);
      table.add_row({std::to_string(n), util::format_double(one, 2),
                     util::format_double(two, 2),
                     util::format_double(improvement, 1) + "%"});
    }
    table.render(std::cout);
    std::printf("max improvement: +%.1f%% (paper: up to +70.6%%)\n",
                best_improvement);
  }

  // Detector demo: 8x P100 on ResNet-32 with a single PS.
  std::printf("\nSection VI-B detector on 8x P100 / ResNet-32 / 1 PS:\n");
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = 8000;
  train::TrainingSession session(sim, nn::resnet32(), config, util::Rng(99));
  core::PerformanceProfiler profiler;
  profiler.attach(session);
  for (const auto& w : train::worker_mix(0, 8, 0)) session.add_worker(w);
  sim.run();

  const double predicted = 8.0 * 12.19;  // additive per-worker prediction
  const core::BottleneckDetector detector;
  const auto report = detector.check(predicted, profiler);
  std::printf(
      "  predicted %.1f steps/s, measured %.1f, deficit %.1f%% -> %s\n",
      report.predicted_speed, report.measured_speed,
      100.0 * report.deficit_fraction,
      report.flagged ? "BOTTLENECK FLAGGED" : "ok");
  std::printf("  advice: %s\n", report.advice.c_str());
  std::printf(
      "  (mitigation: restarting with a second PS costs ~10 s, Section "
      "VI-B)\n");
}
