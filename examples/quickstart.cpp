// Quickstart: simulate training ResNet-32 on a small transient GPU
// cluster with CM-DARE's resource manager, and print what happened.
//
// The whole experiment is one declarative ScenarioSpec, read from
// scenarios/quickstart.scn (compiled into the binary); SimHarness wires
// the simulator, cloud provider, object store, and training run from it.
// The same file runs as
//   ./build/examples/scenario_runner scenarios/quickstart.scn
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"
#include "util/strings.hpp"

using namespace cmdare;

int main() {
  // Train ResNet-32 for 20K steps on two transient K80 workers in
  // us-central1, checkpointing every 4K steps, replacing revoked workers
  // immediately (CM-DARE's default policy).
  const scenario::ScenarioSpec spec =
      scenario::checked_in_scenario("quickstart");
  scenario::SimHarness harness(spec);
  harness.training_run()->on_complete = [&] {
    std::printf("training finished at simulated t = %s\n",
                util::format_duration(harness.simulator().now()).c_str());
  };
  const scenario::ScenarioResult result = harness.run();

  const core::TransientTrainingRun& run = *harness.training_run();
  const auto& trace = run.session().trace();
  std::printf("\nmodel: %s\n", run.session().model().summary().c_str());
  std::printf("cluster: %d transient worker(s) + %d parameter server(s)\n",
              spec.workers[0].count, spec.ps_count);
  std::printf("steps completed: %ld\n", result.completed_steps);
  std::printf("mean speed (post-warmup): %.2f steps/s\n",
              trace.mean_speed(100, spec.max_steps));
  std::printf("checkpoints saved: %zu (to object storage: %zu blobs)\n",
              trace.checkpoints().size(), result.checkpoint_blobs);
  std::printf("revocations: %d, replacements requested: %d\n",
              result.revocations, result.replacements);
  std::printf("elapsed: %s, total cost: $%.2f\n",
              util::format_duration(result.elapsed_seconds).c_str(),
              result.cost_usd);
  return 0;
}
