// Resilience demo: a training run on an adversarial cloud.
//
// A FaultInjector with a 20% uniform fault rate sits under both the cloud
// provider and the object store: instance requests hit launch errors and
// a one-hour capacity stockout covering the launch window, checkpoint
// uploads fail or crawl, restores find corrupt blobs, and some
// revocations arrive with no preemption notice. The TransientTrainingRun
// rides it out with capped-exponential-backoff launch retries, the
// region/GPU/on-demand fallback ladder, checkpoint retry-then-abandon,
// and stale-checkpoint recovery — and still finishes training.
//
// The adversarial cloud is declared as a ScenarioSpec (the same scenario
// is checked in as scenarios/resilience.scn); SimHarness does the wiring
// the old hand-rolled version of this file used to do, with the same RNG
// fork labels, so seed 2020 reproduces the pre-scenario-layer run
// bit-for-bit (pinned by tests/scenario_harness_test.cpp).
//
// Output: a run summary plus the faults.* / resilience.* / storage.*
// counters recorded by the telemetry layer.
#include <cstdio>

#include "obs/obs.hpp"
#include "scenario/harness.hpp"
#include "util/strings.hpp"

using namespace cmdare;

int main() {
  // 20% of every fault class, plus a stockout that swallows the initial
  // launch window for us-central1 K80s — the run must climb the fallback
  // ladder to place its workers at all.
  scenario::ScenarioSpec spec;
  spec.name = "resilience-demo";
  spec.kind = scenario::HarnessKind::kRun;
  spec.seed = 2020;
  spec.model = "resnet-15";
  spec.workers = {{3, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  spec.max_steps = 2000;
  spec.checkpoint_interval_steps = 200;
  spec.horizon_hours = 48.0;
  spec.faults = faults::FaultPlan::uniform(0.2);
  faults::StockoutWindow stockout;
  stockout.region = cloud::Region::kUsCentral1;
  stockout.gpu = cloud::GpuType::kK80;
  stockout.start_s = 0.0;
  stockout.end_s = 3600.0;
  spec.faults.stockouts.push_back(stockout);

  obs::ScopedTelemetry telemetry;
  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();

  const core::TransientTrainingRun& run = *harness.training_run();
  std::printf("run %s: %ld/%ld steps in %s, $%s\n",
              result.finished ? "finished" : "DID NOT FINISH",
              result.completed_steps, run.target_steps(),
              result.finished
                  ? util::format_duration(result.elapsed_seconds).c_str()
                  : "-",
              util::format_double(result.cost_usd, 2).c_str());
  std::printf(
      "  launch retries %d | fallbacks %d | slots abandoned %d\n"
      "  revocations %d (abrupt %d, notices %d) | checkpoints durable %zu\n",
      result.launch_retries, result.fallbacks, result.slots_abandoned,
      result.revocations, result.abrupt_kills, result.notices,
      result.checkpoint_blobs);

  std::printf("\nfault / resilience counters:\n");
  static const std::vector<std::string> kPrefixes = {
      "faults.", "resilience.", "cloud.request_failures", "storage.",
      "train.checkpoints_abandoned"};
  for (const obs::SnapshotRow& row :
       telemetry->registry.snapshot(kPrefixes)) {
    if (row.kind != "counter") continue;
    const std::string labels = obs::format_labels(row.labels);
    std::printf("  %s%s%s%s = %.0f\n", row.name.c_str(),
                labels.empty() ? "" : "{", labels.c_str(),
                labels.empty() ? "" : "}", row.value);
  }
  return result.finished ? 0 : 1;
}
