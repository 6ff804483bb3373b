// Supervision layer: heartbeat detection bounds, hazard-estimator
// convergence, retune hysteresis, and the detection campaign's
// time-to-recovery trend (monotone in the heartbeat timeout).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"
#include "scenario/sweep.hpp"
#include "supervise/supervise.hpp"
#include "util/rng.hpp"

namespace cmdare::supervise {
namespace {

// ---------------------------------------------------------------------------
// HeartbeatDetector.
// ---------------------------------------------------------------------------

TEST(HeartbeatDetector, NoFalsePositivesUnderJitteredHeartbeats) {
  HeartbeatConfig config;
  config.period_s = 10.0;
  config.timeout_s = 60.0;
  HeartbeatDetector detector(config);
  util::Rng rng(1);

  double beats[3] = {0.0, 0.0, 0.0};
  for (std::uint64_t key = 0; key < 3; ++key) detector.watch(key, 0.0);

  // Healthy workers beating with up to +/-30% jitter (3x the configured
  // jitter) never go near the 60 s timeout; every sweep must be empty.
  for (double now = 0.0; now <= 2000.0; now += 5.0) {
    for (std::uint64_t key = 0; key < 3; ++key) {
      if (now - beats[key] >= 10.0 * rng.uniform(0.7, 1.3)) {
        detector.beat(key, now);
        beats[key] = now;
      }
    }
    EXPECT_TRUE(detector.sweep(now).empty()) << "false positive at " << now;
    for (std::uint64_t key = 0; key < 3; ++key) {
      EXPECT_LT(detector.suspicion(key, now), 1.0);
    }
  }
  EXPECT_EQ(detector.watched_count(), 3u);
}

TEST(HeartbeatDetector, DetectsSilenceWithinTimeoutPlusSweepPeriod) {
  HeartbeatConfig config;
  config.period_s = 10.0;
  config.timeout_s = 60.0;
  HeartbeatDetector detector(config);

  detector.watch(7, 0.0);
  detector.watch(8, 0.0);
  double last = 0.0;
  // Both beat until t=100; worker 7 dies there, worker 8 keeps beating.
  for (double now = 10.0; now <= 100.0; now += 10.0) {
    detector.beat(7, now);
    detector.beat(8, now);
    last = now;
  }

  const double sweep_period = 15.0;
  double detected_at = -1.0;
  for (double now = last; now <= last + 200.0; now += sweep_period) {
    detector.beat(8, now);
    const auto dead = detector.sweep(now);
    if (!dead.empty()) {
      ASSERT_EQ(dead.size(), 1u);
      EXPECT_EQ(dead[0], 7u);
      detected_at = now;
      break;
    }
  }
  ASSERT_GE(detected_at, 0.0) << "silent worker never detected";
  // Bounded latency: the first sweep after `last + timeout` must fire.
  EXPECT_LE(detected_at - last, config.timeout_s + sweep_period);
  // Detection is exactly-once: the key left the watch set.
  EXPECT_FALSE(detector.watching(7));
  EXPECT_TRUE(detector.watching(8));
}

TEST(HeartbeatDetector, PhiAccrualModeDetectsAndTracksCadence) {
  HeartbeatConfig config;
  config.period_s = 10.0;
  config.phi_threshold = 8.0;
  HeartbeatDetector detector(config);

  detector.watch(1, 0.0);
  for (double now = 10.0; now <= 200.0; now += 10.0) {
    detector.beat(1, now);
    EXPECT_TRUE(detector.sweep(now).empty());
  }
  // phi = elapsed / (mean_interval * ln 10); with a 10 s cadence the
  // threshold of 8 crosses near 184 s of silence.
  EXPECT_TRUE(detector.sweep(200.0 + 100.0).empty());
  const auto dead = detector.sweep(200.0 + 300.0);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 1u);
}

TEST(HeartbeatDetector, RejectsDegenerateConfig) {
  HeartbeatConfig config;
  config.period_s = 0.0;
  EXPECT_THROW(HeartbeatDetector{config}, std::invalid_argument);
  config = {};
  config.timeout_s = 5.0;  // below the period: every worker flagged
  EXPECT_THROW(HeartbeatDetector{config}, std::invalid_argument);
  config = {};
  config.jitter = 1.5;
  EXPECT_THROW(HeartbeatDetector{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// HazardEstimator.
// ---------------------------------------------------------------------------

TEST(HazardEstimator, StartsAtPriorAndConvergesToInjectedRate) {
  HazardConfig config;
  config.halflife_hours = 6.0;
  config.prior_weight_hours = 12.0;
  HazardEstimator estimator(config);

  const auto region = cloud::Region::kEuropeWest1;
  const auto gpu = cloud::GpuType::kK80;
  estimator.set_prior(region, gpu, 4.0);
  EXPECT_NEAR(estimator.rate_per_hour(region, gpu, 0.0), 4.0, 1e-9);

  // Three live instances failing at a true rate of 1 event per
  // instance-hour: one event per 1/3 h of wall time.
  for (int i = 0; i < 3; ++i) estimator.begin_exposure(region, gpu, 0.0);
  for (double now_h = 1.0 / 3.0; now_h <= 72.0; now_h += 1.0 / 3.0) {
    estimator.record_event(region, gpu, now_h, FailureKind::kRevocation);
  }
  // After 12 half-lives the prior mass is gone; the decayed ratio sits at
  // the true per-instance-hour rate.
  EXPECT_NEAR(estimator.rate_per_hour(region, gpu, 72.0), 1.0, 0.15);
  // A cell that saw neither prior nor events reports zero.
  EXPECT_DOUBLE_EQ(
      estimator.rate_per_hour(cloud::Region::kUsWest1, gpu, 72.0), 0.0);
}

TEST(HazardEstimator, PenaltyAccumulatesAndDecays) {
  HazardConfig config;
  config.score_halflife_hours = 2.0;
  HazardEstimator estimator(config);

  const auto region = cloud::Region::kUsCentral1;
  const auto gpu = cloud::GpuType::kP100;
  estimator.record_event(region, gpu, 1.0, FailureKind::kStockout);
  estimator.record_event(region, gpu, 1.0, FailureKind::kLaunchError);
  const double fresh = estimator.penalty_score(region, gpu, 1.0);
  EXPECT_GT(fresh, 0.0);
  // One score half-life later the penalty halved.
  EXPECT_NEAR(estimator.penalty_score(region, gpu, 3.0), fresh / 2.0,
              1e-6 * fresh);
  // Other cells are untouched.
  EXPECT_DOUBLE_EQ(estimator.penalty_score(region, cloud::GpuType::kK80, 3.0),
                   0.0);
}

// ---------------------------------------------------------------------------
// AdaptiveCheckpointController.
// ---------------------------------------------------------------------------

PlanInputs live_inputs() {
  PlanInputs inputs;
  inputs.remaining_steps = 10000.0;
  inputs.cluster_speed = 8.0;
  inputs.checkpoint_seconds = 4.0;
  inputs.revocations_per_hour = 0.5;
  inputs.provision_seconds = 90.0;
  inputs.replacement_seconds = 60.0;
  return inputs;
}

TEST(AdaptiveCheckpointController, HysteresisBlocksSmallChanges) {
  AdaptiveCheckpointConfig config;
  config.hysteresis = 0.2;
  AdaptiveCheckpointController controller(config);

  // 10% off the current interval: inside the band, no retune counted.
  EXPECT_FALSE(controller
                   .decide(live_inputs(), 100,
                           [](const PlanInputs&) { return 110L; })
                   .has_value());
  EXPECT_EQ(controller.retunes(), 0);
  // 2x the current interval: the retune goes through and is counted.
  const auto planned = controller.decide(
      live_inputs(), 100, [](const PlanInputs&) { return 200L; });
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(*planned, 200);
  EXPECT_EQ(controller.retunes(), 1);
}

TEST(AdaptiveCheckpointController, SkipsDegenerateLiveInputs) {
  AdaptiveCheckpointController controller({});
  const PlannerFn planner = [](const PlanInputs&) { return 500L; };

  PlanInputs inputs = live_inputs();
  inputs.cluster_speed = -1.0;  // profiler still warming up
  EXPECT_FALSE(controller.decide(inputs, 100, planner).has_value());

  inputs = live_inputs();
  inputs.revocations_per_hour = std::nan("");
  EXPECT_FALSE(controller.decide(inputs, 100, planner).has_value());

  inputs = live_inputs();
  inputs.remaining_steps = 10.0;  // below min_interval_steps: nearly done
  EXPECT_FALSE(controller.decide(inputs, 100, planner).has_value());

  // A throwing planner is survivable (skipped round, not a crash).
  EXPECT_FALSE(controller
                   .decide(live_inputs(), 100,
                           [](const PlanInputs&) -> long {
                             throw std::runtime_error("no plan");
                           })
                   .has_value());
  EXPECT_EQ(controller.retunes(), 0);
}

TEST(AdaptiveCheckpointController, ClampsPlansToTheFloor) {
  AdaptiveCheckpointConfig config;
  config.min_interval_steps = 50;
  AdaptiveCheckpointController controller(config);
  const auto planned = controller.decide(
      live_inputs(), 500, [](const PlanInputs&) { return 10L; });
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(*planned, 50);
}

// ---------------------------------------------------------------------------
// End-to-end detection through the scenario layer.
// ---------------------------------------------------------------------------

TEST(SupervisedRun, DetectsAbruptKillsWithBoundedLatency) {
  scenario::ScenarioSpec spec = scenario::checked_in_scenario("detection");
  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();

  EXPECT_TRUE(result.finished);
  ASSERT_GT(result.detections, 0);
  EXPECT_EQ(result.abrupt_kills, result.revocations);  // kill rate = 1
  EXPECT_EQ(result.detections, result.abrupt_kills);
  EXPECT_EQ(result.false_detections, 0);
  // Latency bound: timeout + one sweep period (timeout/4 by default).
  const double timeout = spec.supervision.heartbeat.timeout_s;
  EXPECT_GT(result.detection_latency_p99, 0.0);
  EXPECT_LE(result.detection_latency_p99, timeout + timeout / 4.0 + 1e-9);
  // Recovery observations (revocation -> replacement running) exist and
  // include the detection latency.
  EXPECT_GT(result.mean_recovery_seconds, result.detection_latency_p99 * 0.5);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(DetectionCampaign, RecoveryTimeMonotoneInHeartbeatTimeout) {
  // Shrunk copy of the catalog sweep: one kill rate, three timeouts,
  // three replicas. ttr_s means must increase with the timeout, and the
  // CSV must be byte-identical across thread counts.
  scenario::ScenarioSweep sweep = scenario::sweep_by_name("detection").sweep;
  sweep.axes = {{"supervise.heartbeat_timeout_s", {"60", "300", "900"}},
                {"abrupt_kill_rate", {"1"}}};
  sweep.replicas = 3;

  exp::RunOptions serial;
  serial.jobs = 1;
  const scenario::ScenarioCampaignResult first =
      scenario::run_scenario_campaign(
          sweep, serial, scenario::sweep_by_name("detection").replica);
  ASSERT_EQ(first.cells.size(), 3u);

  double previous = -1.0;
  for (std::size_t c = 0; c < first.cells.size(); ++c) {
    const auto it = first.aggregates[c].metrics.find("ttr_s");
    ASSERT_NE(it, first.aggregates[c].metrics.end())
        << "no recovery observed in cell " << first.cells[c].label();
    const double mean = it->second.running.mean();
    EXPECT_GT(mean, previous)
        << "ttr_s not monotone at " << first.cells[c].label();
    previous = mean;
  }

  exp::RunOptions threaded;
  threaded.jobs = 4;
  const scenario::ScenarioCampaignResult second =
      scenario::run_scenario_campaign(
          sweep, threaded, scenario::sweep_by_name("detection").replica);
  std::ostringstream a;
  std::ostringstream b;
  first.write_csv(a);
  second.write_csv(b);
  EXPECT_EQ(a.str(), b.str());
  // Byte-pin of the jobs=1 CSV (captured before the catalog's detection
  // replica became a metric list): size + FNV-1a.
  EXPECT_EQ(a.str().size(), 3676u);
  EXPECT_EQ(fnv1a(a.str()), 3068137388782690578ull);
}

}  // namespace
}  // namespace cmdare::supervise
