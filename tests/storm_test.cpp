// Correlated failure storms + elastic degraded-mode training: the
// OutageStorm fault class and its provider-side burst/tail semantics,
// the per-pool circuit breaker, the elastic membership policy, the
// fallback-ladder exhaustion path, and the storm campaign's acceptance
// property (elastic beats 1-for-1 replacement on $/kstep AND
// time-to-target in every storm cell, byte-identically at any --jobs).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/provider.hpp"
#include "faults/faults.hpp"
#include "obs/analyze.hpp"
#include "obs/ledger.hpp"
#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"
#include "scenario/sweep.hpp"
#include "simcore/simulator.hpp"
#include "supervise/supervise.hpp"
#include "util/rng.hpp"

namespace cmdare {
namespace {

using cloud::GpuType;
using cloud::Region;
using supervise::BreakerState;

constexpr Region kPool = Region::kUsCentral1;
constexpr GpuType kGpu = GpuType::kK80;

// ---------------------------------------------------------------------------
// CircuitBreaker.
// ---------------------------------------------------------------------------

supervise::CircuitBreakerConfig breaker_config() {
  supervise::CircuitBreakerConfig config;
  config.open_after_failures = 3;
  config.backoff_s = 100.0;
  config.backoff_multiplier = 2.0;
  config.max_backoff_s = 400.0;
  return config;
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresOnly) {
  supervise::CircuitBreaker breaker(breaker_config());
  breaker.record_failure(kPool, kGpu, 10.0);
  breaker.record_failure(kPool, kGpu, 20.0);
  EXPECT_EQ(breaker.state(kPool, kGpu, 20.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(kPool, kGpu), 2);

  // A success between failures resets the streak: no open.
  breaker.record_success(kPool, kGpu, 25.0);
  EXPECT_EQ(breaker.consecutive_failures(kPool, kGpu), 0);
  breaker.record_failure(kPool, kGpu, 30.0);
  breaker.record_failure(kPool, kGpu, 40.0);
  EXPECT_EQ(breaker.state(kPool, kGpu, 40.0), BreakerState::kClosed);

  // The third consecutive failure trips it.
  breaker.record_failure(kPool, kGpu, 50.0);
  EXPECT_EQ(breaker.state(kPool, kGpu, 50.0), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow_request(kPool, kGpu, 60.0));
  EXPECT_EQ(breaker.opens(), 1);
}

TEST(CircuitBreaker, HalfOpenProbeSequencing) {
  supervise::CircuitBreaker breaker(breaker_config());
  for (int i = 0; i < 3; ++i) breaker.record_failure(kPool, kGpu, 100.0);
  ASSERT_EQ(breaker.state(kPool, kGpu, 100.0), BreakerState::kOpen);

  // Blocked during the backoff; half-open once it lapses.
  EXPECT_FALSE(breaker.allow_request(kPool, kGpu, 150.0));
  EXPECT_EQ(breaker.state(kPool, kGpu, 199.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(kPool, kGpu, 200.0), BreakerState::kHalfOpen);

  // Exactly one probe at a time.
  EXPECT_TRUE(breaker.allow_request(kPool, kGpu, 210.0));
  EXPECT_FALSE(breaker.allow_request(kPool, kGpu, 211.0));

  // Failed probe: re-open with the backoff doubled (100 -> 200).
  breaker.record_failure(kPool, kGpu, 220.0);
  EXPECT_EQ(breaker.state(kPool, kGpu, 300.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(kPool, kGpu, 420.0), BreakerState::kHalfOpen);

  // Successful probe closes and resets the streak.
  EXPECT_TRUE(breaker.allow_request(kPool, kGpu, 430.0));
  breaker.record_success(kPool, kGpu, 440.0);
  EXPECT_EQ(breaker.state(kPool, kGpu, 440.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(kPool, kGpu), 0);
  EXPECT_TRUE(breaker.allow_request(kPool, kGpu, 441.0));
}

TEST(CircuitBreaker, BackoffGrowthSaturatesAtCap) {
  supervise::CircuitBreaker breaker(breaker_config());
  double now = 0.0;
  for (int i = 0; i < 3; ++i) breaker.record_failure(kPool, kGpu, now);
  // Fail four more probes: backoff 100 -> 200 -> 400 -> 400 (capped).
  for (int round = 0; round < 4; ++round) {
    now += 500.0;  // past any backoff the config can produce
    ASSERT_EQ(breaker.state(kPool, kGpu, now), BreakerState::kHalfOpen)
        << "round " << round;
    ASSERT_TRUE(breaker.allow_request(kPool, kGpu, now));
    breaker.record_failure(kPool, kGpu, now);
  }
  // Backoff is now 400 (the cap): 399 s later still open, 400 s half-open.
  EXPECT_EQ(breaker.state(kPool, kGpu, now + 399.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(kPool, kGpu, now + 400.0), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, PoolsAreIndependent) {
  supervise::CircuitBreaker breaker(breaker_config());
  for (int i = 0; i < 3; ++i) breaker.record_failure(kPool, kGpu, 0.0);
  EXPECT_EQ(breaker.state(kPool, kGpu, 0.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(kPool, GpuType::kV100, 0.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.state(Region::kUsEast1, kGpu, 0.0),
            BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow_request(Region::kUsEast1, kGpu, 0.0));
}

TEST(CircuitBreaker, TransitionCallbackSeesEveryStateChange) {
  supervise::CircuitBreaker breaker(breaker_config());
  std::vector<std::pair<BreakerState, BreakerState>> seen;
  breaker.on_transition = [&](Region region, GpuType gpu, BreakerState from,
                              BreakerState to, double at) {
    EXPECT_EQ(region, kPool);
    EXPECT_EQ(gpu, kGpu);
    EXPECT_GE(at, 0.0);
    seen.emplace_back(from, to);
  };
  for (int i = 0; i < 3; ++i) breaker.record_failure(kPool, kGpu, 0.0);
  ASSERT_TRUE(breaker.allow_request(kPool, kGpu, 100.0));  // half-open probe
  breaker.record_success(kPool, kGpu, 110.0);              // closes

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0],
            std::make_pair(BreakerState::kClosed, BreakerState::kOpen));
  EXPECT_EQ(seen[1],
            std::make_pair(BreakerState::kOpen, BreakerState::kHalfOpen));
  EXPECT_EQ(seen[2],
            std::make_pair(BreakerState::kHalfOpen, BreakerState::kClosed));
  EXPECT_EQ(breaker.transitions(), 3);
  EXPECT_EQ(breaker.opens(), 1);
}

TEST(CircuitBreaker, RejectsInvalidConfig) {
  supervise::CircuitBreakerConfig config = breaker_config();
  config.open_after_failures = 0;
  EXPECT_THROW(supervise::CircuitBreaker{config}, std::invalid_argument);
  config = breaker_config();
  config.backoff_s = 0.0;
  EXPECT_THROW(supervise::CircuitBreaker{config}, std::invalid_argument);
  config = breaker_config();
  config.backoff_multiplier = 0.5;
  EXPECT_THROW(supervise::CircuitBreaker{config}, std::invalid_argument);
  config = breaker_config();
  config.max_backoff_s = config.backoff_s - 1.0;
  EXPECT_THROW(supervise::CircuitBreaker{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ElasticPolicy.
// ---------------------------------------------------------------------------

supervise::ElasticConfig elastic_config() {
  supervise::ElasticConfig config;
  config.enabled = true;
  config.min_workers = 2;
  config.grow_hysteresis_s = 120.0;
  config.futility_threshold = 0.5;
  config.deadline_hours = 0.0;
  return config;
}

TEST(ElasticPolicy, FloorForcesReplacement) {
  const supervise::ElasticPolicy policy(elastic_config());
  // live_workers below the floor: replace even into an open breaker.
  const auto decision = policy.on_worker_lost(
      /*breaker_allows=*/false, /*hazard_per_hour=*/50.0,
      /*replacement_overhead_s=*/600.0, /*live_workers=*/1, /*now_s=*/0.0,
      /*remaining_work_s=*/-1.0);
  EXPECT_TRUE(decision.replace);
  EXPECT_STREQ(decision.reason, "floor");
}

TEST(ElasticPolicy, DeadlineForcesReplacement) {
  supervise::ElasticConfig config = elastic_config();
  config.deadline_hours = 2.0;
  const supervise::ElasticPolicy policy(config);
  // One hour in with 90 minutes of work left against a 2 h deadline:
  // shrinking would blow the target, so replace.
  const auto urgent = policy.on_worker_lost(false, 50.0, 600.0, 4, 3600.0,
                                            5400.0);
  EXPECT_TRUE(urgent.replace);
  EXPECT_STREQ(urgent.reason, "deadline");
  // Plenty of slack: the breaker verdict prevails again.
  const auto slack = policy.on_worker_lost(false, 50.0, 600.0, 4, 3600.0,
                                           600.0);
  EXPECT_FALSE(slack.replace);
  EXPECT_STREQ(slack.reason, "breaker_open");
}

TEST(ElasticPolicy, OpenBreakerShrinks) {
  const supervise::ElasticPolicy policy(elastic_config());
  const auto decision = policy.on_worker_lost(false, 0.0, 0.0, 3, 0.0, -1.0);
  EXPECT_FALSE(decision.replace);
  EXPECT_STREQ(decision.reason, "breaker_open");
}

TEST(ElasticPolicy, UneconomicalReplacementShrinks) {
  const supervise::ElasticPolicy policy(elastic_config());
  // 6 revocations/h x 600 s overhead = 1.0 expected deaths > 0.5.
  const auto futile = policy.on_worker_lost(true, 6.0, 600.0, 3, 0.0, -1.0);
  EXPECT_FALSE(futile.replace);
  EXPECT_STREQ(futile.reason, "uneconomical");
  // 1 revocation/h x 600 s = 0.17 expected deaths: replace.
  const auto fine = policy.on_worker_lost(true, 1.0, 600.0, 3, 0.0, -1.0);
  EXPECT_TRUE(fine.replace);
  EXPECT_STREQ(fine.reason, "replace");
  // A zero threshold disables the economic gate entirely.
  supervise::ElasticConfig config = elastic_config();
  config.futility_threshold = 0.0;
  const supervise::ElasticPolicy ungated(config);
  EXPECT_TRUE(ungated.on_worker_lost(true, 1000.0, 3600.0, 3, 0.0, -1.0)
                  .replace);
}

TEST(ElasticPolicy, GrowHysteresisThrottlesRegrow) {
  supervise::ElasticPolicy policy(elastic_config());
  EXPECT_TRUE(policy.may_grow(0.0));  // no change recorded yet
  policy.note_change(1000.0);
  EXPECT_FALSE(policy.may_grow(1000.0));
  EXPECT_FALSE(policy.may_grow(1119.9));
  EXPECT_TRUE(policy.may_grow(1120.0));
}

TEST(ElasticPolicy, RegrowEconomicsMirrorsShrinkGate) {
  const supervise::ElasticPolicy policy(elastic_config());
  EXPECT_FALSE(policy.regrow_economical(6.0, 600.0));  // still futile
  EXPECT_TRUE(policy.regrow_economical(1.0, 600.0));   // hazard decayed
  EXPECT_TRUE(policy.regrow_economical(0.0, 600.0));   // no evidence
  supervise::ElasticConfig config = elastic_config();
  config.futility_threshold = 0.0;
  EXPECT_TRUE(supervise::ElasticPolicy(config).regrow_economical(1e6, 3600.0));
}

TEST(ElasticPolicy, RejectsInvalidConfig) {
  supervise::ElasticConfig config = elastic_config();
  config.min_workers = 0;
  EXPECT_THROW(supervise::ElasticPolicy{config}, std::invalid_argument);
  config = elastic_config();
  config.grow_hysteresis_s = -1.0;
  EXPECT_THROW(supervise::ElasticPolicy{config}, std::invalid_argument);
  config = elastic_config();
  config.futility_threshold = -0.5;
  EXPECT_THROW(supervise::ElasticPolicy{config}, std::invalid_argument);
  config = elastic_config();
  config.deadline_hours = -2.0;
  EXPECT_THROW(supervise::ElasticPolicy{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// OutageStorm plan semantics.
// ---------------------------------------------------------------------------

TEST(OutageStorm, CoversMatchesScopeAndHalfOpenWindow) {
  faults::OutageStorm storm;
  storm.region = kPool;
  storm.gpu = kGpu;
  storm.start_s = 100.0;
  storm.end_s = 200.0;
  EXPECT_TRUE(storm.covers(kPool, kGpu, 100.0));
  EXPECT_TRUE(storm.covers(kPool, kGpu, 199.9));
  EXPECT_FALSE(storm.covers(kPool, kGpu, 99.9));
  EXPECT_FALSE(storm.covers(kPool, kGpu, 200.0));
  EXPECT_FALSE(storm.covers(kPool, GpuType::kV100, 150.0));
  EXPECT_FALSE(storm.covers(Region::kUsEast1, kGpu, 150.0));
  // Wildcard GPU scope strikes the whole region.
  storm.gpu.reset();
  EXPECT_TRUE(storm.covers(kPool, GpuType::kV100, 150.0));
}

TEST(OutageStorm, InjectorRejectsInvalidStorms) {
  const auto injector_for = [](faults::OutageStorm storm) {
    faults::FaultPlan plan;
    plan.storms.push_back(storm);
    return faults::FaultInjector(plan, util::Rng(1));
  };
  faults::OutageStorm storm;
  storm.start_s = 10.0;
  storm.end_s = 5.0;
  EXPECT_THROW(injector_for(storm), std::invalid_argument);
  storm = {};
  storm.start_s = -1.0;
  EXPECT_THROW(injector_for(storm), std::invalid_argument);
  storm = {};
  storm.kill_fraction = 1.5;
  EXPECT_THROW(injector_for(storm), std::invalid_argument);
  storm = {};
  storm.hazard_multiplier = 0.5;
  EXPECT_THROW(injector_for(storm), std::invalid_argument);
  storm = {};
  storm.startup_slowdown = 0.0;
  EXPECT_THROW(injector_for(storm), std::invalid_argument);
}

TEST(StockoutWindows, OverlappingAdjacentAndZeroLengthWindows) {
  // Zero-length [t, t): covers nothing, not even its own instant.
  faults::StockoutWindow zero;
  zero.region = kPool;
  zero.gpu = kGpu;
  zero.start_s = 100.0;
  zero.end_s = 100.0;
  EXPECT_FALSE(zero.covers(kPool, kGpu, 100.0));

  // Adjacent [0,10) + [10,20) deny continuously across the seam; an
  // overlapping third window [5,15) never double-counts a decision.
  faults::StockoutWindow first = zero, second = zero, third = zero;
  first.start_s = 0.0;
  first.end_s = 10.0;
  second.start_s = 10.0;
  second.end_s = 20.0;
  third.start_s = 5.0;
  third.end_s = 15.0;
  faults::FaultPlan plan;
  plan.stockouts = {first, second, third};
  faults::FaultInjector injector(plan, util::Rng(2));
  std::uint64_t covered = 0;
  for (const double now : {0.0, 5.0, 9.9, 10.0, 15.0, 19.9, 20.0, 25.0}) {
    if (injector.stocked_out(kPool, kGpu, now)) ++covered;
  }
  EXPECT_EQ(covered, 6u);  // everything before 20.0
  EXPECT_EQ(injector.injected(faults::FaultKind::kStockout), 6u);
}

// ---------------------------------------------------------------------------
// Provider storm burst / tail / clear.
// ---------------------------------------------------------------------------

TEST(ProviderStorm, BurstRevokesTailDeniesAndClears) {
  simcore::Simulator sim;
  util::Rng rng(7);
  faults::FaultPlan plan;
  faults::OutageStorm storm;
  storm.region = kPool;
  storm.gpu = kGpu;
  storm.start_s = 600.0;
  storm.end_s = 1800.0;
  storm.kill_fraction = 1.0;
  storm.hazard_multiplier = 3.0;
  storm.startup_slowdown = 2.0;
  plan.storms.push_back(storm);
  faults::FaultInjector injector(plan, rng.fork("faults"));
  cloud::CloudProvider provider(sim, rng.fork("cloud"));
  provider.set_fault_injector(&injector);

  int revoked = 0;
  cloud::InstanceCallbacks callbacks;
  callbacks.on_revoked = [&](cloud::InstanceId) { ++revoked; };
  cloud::InstanceRequest request;
  request.gpu = kGpu;
  request.region = kPool;
  request.transient = true;
  for (int i = 0; i < 3; ++i) provider.request_instance(request, callbacks);

  // Before the burst: pool healthy, no storm effects.
  sim.run_until(599.0);
  EXPECT_FALSE(provider.outage_active(kPool, kGpu));
  EXPECT_DOUBLE_EQ(provider.outage_hazard_multiplier(kPool, kGpu), 1.0);
  const int natural_deaths = revoked;

  // The burst abruptly revokes every still-live in-scope instance
  // (kill_fraction 1), and the tail denies requests with degraded
  // hazard/startup until end_s.
  sim.run_until(601.0);
  EXPECT_EQ(revoked, 3);
  EXPECT_EQ(provider.outage_revocations(),
            static_cast<std::uint64_t>(3 - natural_deaths));
  EXPECT_TRUE(provider.outage_active(kPool, kGpu));
  EXPECT_DOUBLE_EQ(provider.outage_hazard_multiplier(kPool, kGpu), 3.0);
  EXPECT_DOUBLE_EQ(provider.outage_startup_slowdown(kPool, kGpu), 2.0);
  EXPECT_FALSE(provider.outage_active(kPool, GpuType::kV100));

  bool denied = false;
  cloud::InstanceCallbacks denial_watch;
  denial_watch.on_request_failed = [&](cloud::InstanceId,
                                       cloud::RequestFailureReason) {
    denied = true;
  };
  provider.request_instance(request, std::move(denial_watch));
  sim.run_until(700.0);
  EXPECT_TRUE(denied);
  EXPECT_GE(provider.outage_denials(), 1u);

  // After end_s the pool clears: no outage, fresh requests succeed.
  sim.run_until(1801.0);
  EXPECT_FALSE(provider.outage_active(kPool, kGpu));
  EXPECT_DOUBLE_EQ(provider.outage_hazard_multiplier(kPool, kGpu), 1.0);
  EXPECT_DOUBLE_EQ(provider.outage_startup_slowdown(kPool, kGpu), 1.0);
  bool running = false;
  cloud::InstanceCallbacks recovery_watch;
  recovery_watch.on_running = [&](cloud::InstanceId) { running = true; };
  provider.request_instance(request, std::move(recovery_watch));
  sim.run_until(1801.0 + 600.0);
  EXPECT_TRUE(running);
}

// ---------------------------------------------------------------------------
// Fallback-ladder exhaustion (the degraded 1-for-1 path).
// ---------------------------------------------------------------------------

TEST(FallbackLadder, ExhaustedLadderAbandonsSlotCleanly) {
  // Every rung disabled and the pool stocked out for the whole horizon:
  // advance_fallback can never produce a new target, so each slot must
  // burn its launch-attempt budget, be abandoned exactly once, and leave
  // the run stalled (not crashed) at the horizon.
  scenario::ScenarioSpec spec;
  spec.name = "ladder-exhaustion";
  spec.kind = scenario::HarnessKind::kRun;
  spec.seed = 11;
  spec.model = "resnet-15";
  spec.workers = {{2, kGpu, kPool, true}};
  spec.max_steps = 5000;
  spec.horizon_hours = 2.0;
  spec.resilience.max_launch_attempts = 4;
  spec.resilience.backoff_base_seconds = 2.0;
  spec.resilience.backoff_max_seconds = 8.0;
  spec.resilience.allow_region_fallback = false;
  spec.resilience.allow_gpu_fallback = false;
  spec.resilience.allow_on_demand_fallback = false;
  faults::StockoutWindow window;
  window.region = kPool;
  window.gpu = kGpu;
  window.start_s = 0.0;
  window.end_s = 2.0 * 3600.0;
  spec.faults.stockouts.push_back(window);

  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();
  EXPECT_FALSE(result.finished);
  EXPECT_EQ(result.completed_steps, 0);
  EXPECT_EQ(result.slots_abandoned, 2);
  // 4 attempts per slot = 1 initial + 3 retries, for both slots.
  EXPECT_EQ(result.launch_retries, 6);
  EXPECT_EQ(result.fallbacks, 0);
}

// ---------------------------------------------------------------------------
// End-to-end elastic run and the storm campaign acceptance property.
// ---------------------------------------------------------------------------

/// The catalog's storm sweep shrunk for tests: a compressed storm window
/// over a shorter run, same pool/knobs. kill=1 makes the contrast
/// deterministic: the 1-for-1 arm loses every worker and stalls, the
/// elastic arm shrinks through the breaker and regrows after the tail.
scenario::ScenarioSweep shrunk_storm_sweep(int replicas) {
  scenario::ScenarioSweep sweep = scenario::sweep_by_name("storm").sweep;
  sweep.name = "storm-golden";
  sweep.base.max_steps = 120000;
  sweep.base.checkpoint_interval_steps = 4000;
  sweep.base.horizon_hours = 6.0;
  sweep.axes = {
      {"storms",
       {"us-central1/K80 @ 1200..3600 kill=0.7 hazard=4 slow=2",
        "us-central1/K80 @ 1200..3600 kill=1 hazard=4 slow=2"}},
      {"supervise.elastic.enabled", {"false", "true"}},
  };
  sweep.replicas = replicas;
  sweep.seed = 909;
  return sweep;
}

scenario::ScenarioCampaignResult run_storm_sweep(int replicas, int jobs,
                                                 bool telemetry) {
  exp::RunOptions options;
  options.jobs = jobs;
  options.capture_telemetry = telemetry;
  return run_scenario_campaign(shrunk_storm_sweep(replicas), options,
                               scenario::sweep_by_name("storm").replica);
}

TEST(StormScenario, ElasticRunShrinksAndRegrows) {
  scenario::ScenarioSpec spec = scenario::checked_in_scenario("storm");
  spec.max_steps = 120000;
  spec.checkpoint_interval_steps = 4000;
  spec.horizon_hours = 6.0;
  spec.faults.storms[0].start_s = 1200.0;
  spec.faults.storms[0].end_s = 3600.0;
  spec.faults.storms[0].kill_fraction = 1.0;
  spec.supervision.elastic.enabled = true;

  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.completed_steps, 120000);
  EXPECT_GT(result.elastic_shrinks, 0);
  EXPECT_GT(result.elastic_grows, 0);
  EXPECT_GT(result.breaker_opens, 0);
  EXPECT_GT(result.outage_revocations, 0u);
  EXPECT_GT(result.outage_denials, 0u);
  // Every shrink eventually regrew: no net deficit at the finish.
  EXPECT_EQ(result.elastic_shrinks, result.elastic_grows);
}

TEST(StormCampaign, ElasticBeatsOneForOneInEveryStormCell) {
  const scenario::ScenarioCampaignResult result =
      run_storm_sweep(/*replicas=*/2, /*jobs=*/2, /*telemetry=*/false);
  // First axis (storms) slowest: cells are {storm0, storm1} x
  // {1-for-1, elastic}.
  ASSERT_EQ(result.cells.size(), 4u);
  const auto mean = [&](std::size_t cell, const char* metric) {
    return result.aggregates[cell].metrics.at(metric).running.mean();
  };
  for (std::size_t storm = 0; storm < 2; ++storm) {
    const std::size_t fixed = storm * 2;      // elastic off
    const std::size_t elastic = fixed + 1;    // elastic on
    // The acceptance property: elastic wins BOTH objectives per cell.
    EXPECT_LT(mean(elastic, "time_to_target_s"),
              mean(fixed, "time_to_target_s"))
        << "storm cell " << storm;
    EXPECT_LT(mean(elastic, "usd_per_kstep"), mean(fixed, "usd_per_kstep"))
        << "storm cell " << storm;
    // The mechanism is visible in the counters: the 1-for-1 arm burns
    // its attempt budget and abandons slots, the elastic arm defers and
    // regrows through the breaker.
    EXPECT_GT(mean(fixed, "slots_abandoned"), 0.0);
    EXPECT_EQ(mean(fixed, "elastic_shrinks"), 0.0);
    EXPECT_EQ(mean(fixed, "breaker_opens"), 0.0);
    EXPECT_GT(mean(elastic, "elastic_shrinks"), 0.0);
    EXPECT_GT(mean(elastic, "elastic_grows"), 0.0);
    EXPECT_GT(mean(elastic, "breaker_opens"), 0.0);
    EXPECT_EQ(mean(elastic, "finished"), 1.0);
  }
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(StormCampaign, CsvAndMergedLedgerByteIdenticalAcrossJobCounts) {
  const auto render = [](int jobs) {
    const scenario::ScenarioCampaignResult result =
        run_storm_sweep(/*replicas=*/1, jobs, /*telemetry=*/true);
    std::ostringstream csv;
    result.write_csv(csv);
    std::ostringstream ledger;
    obs::write_ledger_jsonl(result.telemetry->ledger, ledger);
    return std::pair<std::string, std::string>(csv.str(), ledger.str());
  };
  const auto [csv1, ledger1] = render(1);
  const auto [csv4, ledger4] = render(4);
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(ledger1, ledger4);
  // Byte-pins of the jobs=1 rendering (captured at introduction): the
  // full texts are too large to inline, so pin size + FNV-1a instead.
  EXPECT_EQ(csv1.size(), 9622u);
  EXPECT_EQ(fnv1a(csv1), 3016881385912561154ull);
  EXPECT_EQ(ledger1.size(), 87001u);
  EXPECT_EQ(fnv1a(ledger1), 16053550116167599886ull);
  // The membership mechanics are visible in the merged ledger.
  EXPECT_NE(ledger1.find("\"kind\":\"breaker_transition\""),
            std::string::npos);
  EXPECT_NE(ledger1.find("\"kind\":\"elastic_shrink\""), std::string::npos);
  EXPECT_NE(ledger1.find("\"kind\":\"elastic_grow\""), std::string::npos);

  // And run_report's analysis attributes the degraded-capacity window:
  // shrink-depth integrated over time, outside the Eq. 4 identity.
  const obs::LedgerParseResult parsed = obs::parse_ledger_jsonl(ledger1);
  ASSERT_TRUE(parsed.ok());
  const obs::analyze::LedgerAnalysis analysis =
      obs::analyze::analyze_ledger(parsed.ledger);
  EXPECT_GT(analysis.elastic.shrinks, 0u);
  EXPECT_GT(analysis.elastic.grows, 0u);
  EXPECT_GT(analysis.elastic.breaker_opens, 0u);
  EXPECT_GT(analysis.elastic.degraded_slot_seconds, 0.0);
  std::ostringstream report;
  obs::analyze::write_report(analysis, report);
  EXPECT_NE(report.str().find("Elastic membership"), std::string::npos);
}

}  // namespace
}  // namespace cmdare
