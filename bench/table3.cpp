// Table III: average step time (ms) of an individual worker training
// ResNet-32 as the cluster grows — homogeneous (1/2/4/8 same-GPU workers)
// and heterogeneous (2 K80 + 1 P100 + 1 V100) clusters, one PS.
#include "bench_common.hpp"

using namespace cmdare;

namespace {

struct Cell {
  double mean_ms;
  double sd_ms;
};

Cell worker_step_ms(int k80, int p100, int v100, train::WorkerId report,
                    std::uint64_t seed) {
  simcore::Simulator sim;
  train::SessionConfig config;
  const int total = k80 + p100 + v100;
  config.max_steps = 1200 * total + 2000;
  train::TrainingSession session(sim, nn::resnet32(), config,
                                 util::Rng(seed));
  for (const auto& w : train::worker_mix(k80, p100, v100)) {
    session.add_worker(w);
  }
  sim.run();
  const auto intervals = session.trace().worker_step_intervals(report, 100);
  return Cell{cmdare::stats::mean(intervals) * 1000.0,
              cmdare::stats::stddev(intervals) * 1000.0};
}

}  // namespace

void bench::table3() {
  util::Table table({"GPU", "(1,0,0)/(0,1,0)/(0,0,1)", "x2", "x4", "x8",
                     "hetero (2,1,1)", "paper baseline", "paper x8"});

  const struct {
    const char* name;
    cloud::GpuType gpu;
    double paper_baseline;
    double paper_x8;
    train::WorkerId hetero_report;  // index of this GPU in (2,1,1)
  } rows[] = {
      {"K80", cloud::GpuType::kK80, 229.85, 227.46, 0},
      {"P100", cloud::GpuType::kP100, 105.45, 198.11, 2},
      {"V100", cloud::GpuType::kV100, 92.38, 191.72, 3},
  };

  std::uint64_t seed = 30;
  for (const auto& row : rows) {
    const int is_k80 = row.gpu == cloud::GpuType::kK80;
    const int is_p100 = row.gpu == cloud::GpuType::kP100;
    const int is_v100 = row.gpu == cloud::GpuType::kV100;
    std::vector<std::string> cells = {row.name};
    for (int n : {1, 2, 4, 8}) {
      const Cell c = worker_step_ms(n * is_k80, n * is_p100, n * is_v100, 0,
                                    seed++);
      cells.push_back(util::format_mean_sd(c.mean_ms, c.sd_ms, 2));
    }
    const Cell h = worker_step_ms(2, 1, 1, row.hetero_report, seed++);
    cells.push_back(util::format_mean_sd(h.mean_ms, h.sd_ms, 2));
    cells.push_back(util::format_double(row.paper_baseline, 2));
    cells.push_back(util::format_double(row.paper_x8, 2));
    table.add_row(cells);
  }
  table.render(std::cout);

  // The PS figures come from the service time fig4's capacity column
  // reads, so the note states what the simulator charges.
  const double service = cloud::ps_update_service_seconds(nn::resnet32(), 1);
  bench::print_note(
      "K80 workers stay flat through 8 workers; P100/V100 hit the single-PS "
      "bottleneck (" + util::format_double(1.0 / service, 1) +
      " updates/s for ResNet-32) and inflate toward n_workers * PS service "
      "time (" + util::format_double(8.0 * service * 1000.0, 2) +
      " ms at 8). Heterogeneous clusters do not slow existing workers. "
      "P100/V100 baselines anchor to Table I (the paper's Tables I and III "
      "disagree for those entries; see EXPERIMENTS.md).");
}
