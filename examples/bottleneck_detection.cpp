// Bottleneck detection & mitigation (Section VI-B): grow a P100 cluster,
// compare measured speed against the composed per-worker prediction, flag
// the parameter-server bottleneck when the deficit exceeds 6.7% after a
// 30-second warmup, and mitigate by restarting with a second PS — first
// offline (sweep), then closed-loop with the CM-DARE controller.
#include <cstdio>

#include "cmdare/bottleneck.hpp"
#include "cmdare/controller.hpp"
#include "cmdare/measurement.hpp"
#include "cmdare/profiler.hpp"
#include "cmdare/speed_modeling.hpp"
#include "nn/model_zoo.hpp"
#include "simcore/simulator.hpp"
#include "util/strings.hpp"

using namespace cmdare;

namespace {

double run_and_measure(const nn::CnnModel& model, int workers, int ps_count,
                       core::PerformanceProfiler* profiler,
                       std::uint64_t seed) {
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = 1500L * workers;
  config.ps_count = ps_count;
  train::TrainingSession session(sim, model, config, util::Rng(seed));
  if (profiler) profiler->attach(session);
  for (const auto& w : train::worker_mix(0, workers, 0)) {
    session.add_worker(w);
  }
  sim.run();
  return session.trace().mean_speed(200, config.max_steps);
}

}  // namespace

int main() {
  const nn::CnnModel model = nn::resnet32();

  // Offline: build the per-GPU speed model from historical measurements.
  util::Rng rng(31);
  const auto measurements =
      core::measure_step_times(nn::all_models(), {cloud::GpuType::kP100},
                               rng, 800);
  util::Rng train_rng(32);
  const auto predictor = core::StepTimePredictor::train(measurements,
                                                        train_rng);
  const double per_worker =
      predictor.predict_speed(cloud::GpuType::kP100, model.gflops());
  std::printf("predicted single-P100 speed for %s: %.2f steps/s\n",
              model.name().c_str(), per_worker);

  const core::BottleneckDetector detector;  // 30 s warmup, 6.7% threshold
  std::printf("\n%-10s %-12s %-12s %-10s %s\n", "workers", "predicted",
              "measured", "deficit", "verdict");

  std::uint64_t seed = 33;
  for (int n : {2, 4, 6, 8}) {
    core::PerformanceProfiler profiler;
    run_and_measure(model, n, 1, &profiler, seed++);
    const double predicted = n * per_worker;
    const auto report = detector.check(predicted, profiler);
    std::printf("%-10d %-12.2f %-12.2f %-10s %s\n", n,
                report.predicted_speed, report.measured_speed,
                (std::to_string(static_cast<int>(
                     100.0 * report.deficit_fraction + 0.5)) +
                 "%")
                    .c_str(),
                report.flagged ? "PS BOTTLENECK" : "ok");

    if (report.flagged) {
      // Mitigation: restart the session with two parameter servers
      // (TensorFlow cannot add a PS live; the restart costs ~10 s).
      const double mitigated = run_and_measure(model, n, 2, nullptr, seed++);
      std::printf(
          "           -> restarted with 2 PS: %.2f steps/s (+%.1f%%), "
          "restart overhead ~10 s\n",
          mitigated, 100.0 * (mitigated / report.measured_speed - 1.0));
    }
  }

  // Closed loop: the CM-DARE controller watches a live transient run and
  // performs the mitigation itself.
  std::printf("\nclosed-loop controller on 8x transient P100, 60K steps:\n");
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(40));
  core::RunConfig run_config;
  run_config.session.max_steps = 60000;
  run_config.workers = train::worker_mix(0, 8, 0);
  core::TransientTrainingRun run(provider, model, run_config, util::Rng(41));
  core::Controller controller(run, predictor);
  run.start();
  controller.start();
  sim.run();
  std::printf(
      "  finished %ld steps in %s with %d mitigation(s); final cluster has "
      "%d parameter servers (%d restarts, ~10 s each)\n",
      run.completed_steps(), util::format_duration(run.elapsed_seconds()).c_str(),
      controller.mitigations(), run.current_ps_count(),
      run.counters().restarts);
  for (const auto& r : controller.reports()) {
    if (r.flagged) {
      std::printf(
          "  flagged: predicted %.1f vs measured %.1f steps/s (deficit "
          "%.0f%%)\n",
          r.predicted_speed, r.measured_speed, 100.0 * r.deficit_fraction);
    }
  }
  return 0;
}
