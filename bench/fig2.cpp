// Figure 2: training speed over steps for the simplest cluster (K80),
// all four canonical models — speed is stable after warmup with a
// coefficient of variation of at most ~0.02.
#include "bench_common.hpp"

using namespace cmdare;

void bench::fig2() {
  std::uint64_t seed = 2;
  for (const nn::CnnModel& model : nn::canonical_models()) {
    simcore::Simulator sim;
    train::SessionConfig config;
    config.max_steps = 4000;
    train::TrainingSession session(sim, model, config, util::Rng(seed++));
    train::WorkerSpec spec;
    spec.gpu = cloud::GpuType::kK80;
    session.add_worker(spec);
    sim.run();

    const auto speeds = session.trace().speed_per_window(100);
    std::printf("\n%s (%.2f GFLOPs):\n", model.name().c_str(),
                model.gflops());
    std::printf("  steps:  ");
    for (std::size_t w = 0; w < speeds.size(); w += 4) {
      std::printf("%6zu", (w + 1) * 100);
    }
    std::printf("\n  steps/s:");
    for (std::size_t w = 0; w < speeds.size(); w += 4) {
      std::printf("%6.2f", speeds[w]);
    }
    const std::vector<double> steady(speeds.begin() + 1, speeds.end());
    std::printf("\n  post-warmup CoV = %.4f (paper: <= 0.02)\n",
                stats::coefficient_of_variation(steady));
  }

  bench::print_note(
      "speed dips in the first window (graph build / cache warmup) and is "
      "flat afterwards, enabling prediction from historical data.");
}
