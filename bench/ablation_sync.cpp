// Ablation: asynchronous vs synchronous training.
//
// Section II claims the asynchronous PS architecture "reduces the impact
// of hardware differences in heterogeneous clusters because slower workers
// do not impede others". This ablation quantifies that claim: the same
// clusters trained with the asynchronous session and with a barrier-
// synchronous baseline, compared in worker-batches/second.
#include "bench_common.hpp"

#include "train/sync_session.hpp"

using namespace cmdare;

namespace {

double async_throughput(const nn::CnnModel& model, int k80, int p100,
                        int v100, std::uint64_t seed) {
  const int n = k80 + p100 + v100;
  return bench::run_cluster_speed(model, k80, p100, v100, 1, 1500L * n, seed);
}

double sync_throughput(const nn::CnnModel& model, int k80, int p100,
                       int v100, std::uint64_t seed) {
  simcore::Simulator sim;
  train::SyncTrainingSession session(sim, model, 1, 2000, util::Rng(seed));
  for (const auto& w : train::worker_mix(k80, p100, v100)) {
    session.add_worker(w);
  }
  session.start();
  sim.run();
  return session.worker_batches_per_second(200, 2000);
}

}  // namespace

void bench::ablation_sync() {
  const nn::CnnModel model = nn::resnet32();
  util::Table table({"cluster (K80,P100,V100)", "async (batches/s)",
                     "sync (batches/s)", "async advantage"});
  const int shapes[][3] = {{4, 0, 0}, {0, 4, 0}, {0, 0, 4},
                           {2, 1, 1}, {2, 0, 2}, {1, 1, 1}};
  std::uint64_t seed = 700;
  for (const auto& s : shapes) {
    const double a = async_throughput(model, s[0], s[1], s[2], seed++);
    const double y = sync_throughput(model, s[0], s[1], s[2], seed++);
    const double advantage = 100.0 * (a / y - 1.0);
    table.add_row({train::describe_mix(train::worker_mix(s[0], s[1], s[2])),
                   util::format_double(a, 2), util::format_double(y, 2),
                   (advantage >= 0 ? "+" : "") +
                       util::format_double(advantage, 1) + "%"});
  }
  table.render(std::cout);

  bench::print_note(
      "on heterogeneous clusters sync is gated by the slowest GPU (every "
      "P100/V100 batch waits for the K80), so the async advantage exceeds "
      "+100% — quantifying Section II's design argument. On homogeneous "
      "clusters the modes are close; sync can even win when the async "
      "cluster is PS-bound (4x V100), because aggregating gradients sends "
      "one update per round instead of four.");
}
