// Supervision demo: a training run that must notice its own failures.
//
// Every revocation on this cloud is an abrupt kill — the preemption
// notice never arrives, so the control plane's usual revocation callback
// carries no replacement signal. The supervision layer closes the gap:
// workers emit sim-time heartbeats, a sweep flags the ones that went
// silent past the timeout, and only then does the replacement machinery
// run. Detection latency is therefore a real, measured part of every
// recovery (revocation -> replacement running), not an assumption.
//
// On top of detection the demo turns on the rest of the loop: the hazard
// estimator decays the calibrated prior into live per-(region, GPU)
// revocation rates, the adaptive controller re-plans the checkpoint
// interval against them every 30 simulated minutes, replacement launches
// are ordered by health score, and each replacement is hedged (two
// launches, loser cancelled, both billed).
//
// The same scenario is checked in as scenarios/supervise.scn.
//
// Output: a run summary plus the supervise.* counters recorded by the
// telemetry layer.
#include <cstdio>

#include "obs/obs.hpp"
#include "scenario/harness.hpp"
#include "util/strings.hpp"

using namespace cmdare;

int main() {
  scenario::ScenarioSpec spec;
  spec.name = "supervise-demo";
  spec.kind = scenario::HarnessKind::kRun;
  spec.seed = 2031;
  spec.model = "resnet-15";
  // europe-west1 K80s die young (>50% revoked within two hours), so a
  // multi-hour run exercises detection repeatedly without any injected
  // hazard inflation.
  spec.workers = {
      {3, cloud::GpuType::kK80, cloud::Region::kEuropeWest1, true}};
  spec.max_steps = 200000;
  spec.checkpoint_interval_steps = 2000;
  spec.horizon_hours = 24.0;
  spec.faults.abrupt_kill_rate = 1.0;
  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 15.0;
  spec.supervision.heartbeat.timeout_s = 120.0;
  spec.supervision.checkpoint.retune_period_s = 1800.0;
  spec.supervision.score_replacement = true;
  spec.supervision.hedged_replacement = true;

  obs::ScopedTelemetry telemetry;
  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();

  const core::TransientTrainingRun& run = *harness.training_run();
  std::printf("run %s: %ld/%ld steps in %s, $%s\n",
              result.finished ? "finished" : "DID NOT FINISH",
              result.completed_steps, run.target_steps(),
              util::format_duration(result.elapsed_seconds).c_str(),
              util::format_double(result.cost_usd, 2).c_str());
  std::printf(
      "  revocations %d (all abrupt: %d) | detections %d "
      "(false positives %d)\n"
      "  detection latency p99 %ss | mean recovery %ss\n"
      "  interval retunes %d | hedges cancelled %d | fenced workers %d\n",
      result.revocations, result.abrupt_kills, result.detections,
      result.false_detections,
      util::format_double(result.detection_latency_p99, 1).c_str(),
      util::format_double(result.mean_recovery_seconds, 1).c_str(),
      result.interval_retunes, result.hedges_cancelled,
      result.fenced_workers);

  std::printf("\nsupervision counters:\n");
  static const std::vector<std::string> kPrefixes = {"supervise."};
  for (const obs::SnapshotRow& row :
       telemetry->registry.snapshot(kPrefixes)) {
    if (row.kind != "counter" && row.kind != "gauge") continue;
    const std::string labels = obs::format_labels(row.labels);
    std::printf("  %s%s%s%s = %.0f\n", row.name.c_str(),
                labels.empty() ? "" : "{", labels.c_str(),
                labels.empty() ? "" : "}", row.value);
  }
  return 0;
}
