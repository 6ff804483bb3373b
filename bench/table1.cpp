// Table I: training speed (steps/second) for the simplest cluster
// configuration — one GPU worker + one parameter server, four canonical
// CNN models, three GPU types. 4000 steps, first 100 discarded.
#include "bench_common.hpp"

using namespace cmdare;

namespace {

struct SingleWorkerResult {
  double mean_speed = 0.0;  // steps/s, steps 100..N
  double speed_sd = 0.0;    // sd of per-100-step speeds
};

/// Runs the paper's simplest cluster (1 GPU worker + 1 PS) for `steps`
/// steps and reports speed statistics with the first 100 steps discarded.
SingleWorkerResult run_single_worker(const nn::CnnModel& model,
                                     cloud::GpuType gpu, long steps,
                                     std::uint64_t seed) {
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = steps;
  train::TrainingSession session(sim, model, config, util::Rng(seed));
  train::WorkerSpec spec;
  spec.gpu = gpu;
  spec.label = model.name();
  session.add_worker(spec);
  sim.run();

  SingleWorkerResult result;
  result.mean_speed = session.trace().mean_speed(100, steps);
  const auto window_speeds = session.trace().speed_per_window(100);
  if (window_speeds.size() > 2) {
    const std::vector<double> steady(window_speeds.begin() + 1,
                                     window_speeds.end());
    result.speed_sd = stats::stddev(steady);
  }
  return result;
}

}  // namespace

void bench::table1() {
  const struct {
    const char* name;
    double paper[3];  // K80, P100, V100 steps/s from the paper
  } reference[] = {
      {"resnet-15", {9.46, 21.16, 27.38}},
      {"resnet-32", {4.56, 12.19, 15.61}},
      {"shake-shake-small", {2.58, 6.99, 8.80}},
      {"shake-shake-big", {0.70, 1.98, 2.18}},
  };

  util::Table table({"GPU (teraflops)", "ResNet-15 (0.59)",
                     "ResNet-32 (1.54)", "ShakeShake small (2.41)",
                     "ShakeShake Big (21.3)"});
  util::Table paper_table({"GPU (teraflops)", "ResNet-15", "ResNet-32",
                           "ShakeShake small", "ShakeShake Big"});

  int gpu_index = 0;
  for (cloud::GpuType gpu : cloud::kAllGpuTypes) {
    const cloud::GpuSpec& spec = cloud::gpu_spec(gpu);
    std::vector<std::string> row = {std::string(spec.name) + " (" +
                                    util::format_double(spec.tflops, 2) + ")"};
    std::vector<std::string> paper_row = row;
    for (const auto& model_ref : reference) {
      const nn::CnnModel model = nn::model_by_name(model_ref.name);
      const auto result = run_single_worker(
          model, gpu, 4000, 1000 + static_cast<std::uint64_t>(gpu_index));
      row.push_back(
          util::format_mean_sd(result.mean_speed, result.speed_sd, 2));
      paper_row.push_back(
          util::format_double(model_ref.paper[gpu_index], 2));
    }
    table.add_row(row);
    paper_table.add_row(paper_row);
    ++gpu_index;
  }

  table.set_title("Measured (this reproduction):");
  table.render(std::cout);
  paper_table.set_title("Paper (Table I):");
  paper_table.render(std::cout);

  bench::print_note(
      "faster GPUs train faster on every model; speed drops as model "
      "complexity grows (e.g. ResNet-32 ~2x slower than ResNet-15 on K80).");
}
