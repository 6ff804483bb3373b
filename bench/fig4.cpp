// Figure 4: empirically measured cluster training speed vs the number of
// P100 workers (one PS), for the four canonical models.
#include "bench_common.hpp"

using namespace cmdare;

void bench::fig4() {
  util::Table table({"model", "n=1", "n=2", "n=3", "n=4", "n=5", "n=6",
                     "n=7", "n=8", "PS capacity"});
  std::uint64_t seed = 40;
  for (const nn::CnnModel& model : nn::canonical_models()) {
    std::vector<std::string> row = {model.name()};
    for (int n = 1; n <= 8; ++n) {
      const long steps = std::max<long>(1500, 900L * n);
      const double speed =
          bench::run_cluster_speed(model, 0, n, 0, 1, steps, seed++);
      row.push_back(util::format_double(speed, 2));
    }
    row.push_back(util::format_double(
        1.0 / cloud::ps_update_service_seconds(model, 1), 1));
    table.add_row(row);
  }
  table.render(std::cout);

  bench::print_note(
      "speed rises with cluster size until the single parameter server "
      "saturates: ResNet-15 keeps scaling the longest, ResNet-32 and "
      "Shake-Shake Small plateau after ~4 workers, and Shake-Shake Big "
      "barely improves (its large parameter set saturates the PS almost "
      "immediately; the paper attributes its flatness to P100 capacity).");
}
