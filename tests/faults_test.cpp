// Fault-injection layer: injector determinism, provider/storage injection
// sites, and the resilient control plane riding out an adversarial cloud.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "cloud/storage.hpp"
#include "cmdare/resource_manager.hpp"
#include "faults/faults.hpp"
#include "nn/model_zoo.hpp"
#include "obs/obs.hpp"
#include "simcore/simulator.hpp"
#include "train/cluster.hpp"

namespace cmdare::core {

/// Test seam (friend of TransientTrainingRun): injects fabricated
/// lifecycle events that the real provider never produces.
class TransientTrainingRunTestPeer {
 public:
  static void running(TransientTrainingRun& run, cloud::InstanceId id) {
    run.handle_running(id);
  }
  static void revoked(TransientTrainingRun& run, cloud::InstanceId id) {
    run.handle_revoked(id);
  }
  static void request_failed(TransientTrainingRun& run, cloud::InstanceId id) {
    run.handle_request_failed(id, cloud::RequestFailureReason::kLaunchError);
  }
};

namespace {

using faults::FaultInjector;
using faults::FaultKind;
using faults::FaultPlan;
using faults::StockoutWindow;

TEST(FaultPlan, UniformSetsEveryRate) {
  const FaultPlan plan = FaultPlan::uniform(0.25);
  EXPECT_DOUBLE_EQ(plan.launch_error_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.upload_error_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.upload_slowdown_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.restore_error_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.abrupt_kill_rate, 0.25);
  EXPECT_TRUE(plan.stockouts.empty());
  EXPECT_TRUE(plan.any());
  EXPECT_FALSE(FaultPlan{}.any());
}

TEST(FaultPlan, ValidatesRates) {
  FaultPlan bad;
  bad.launch_error_rate = 1.5;
  EXPECT_THROW(FaultInjector(bad, util::Rng(1)), std::invalid_argument);
  FaultPlan negative;
  negative.restore_error_rate = -0.1;
  EXPECT_THROW(FaultInjector(negative, util::Rng(1)), std::invalid_argument);
  FaultPlan slow;
  slow.upload_slowdown_rate = 0.5;
  slow.upload_slowdown_factor = 0.5;  // would *speed up* uploads
  EXPECT_THROW(FaultInjector(slow, util::Rng(1)), std::invalid_argument);
  FaultPlan window;
  window.stockouts.push_back({cloud::Region::kUsCentral1, std::nullopt,
                              100.0, 50.0});  // end < start
  EXPECT_THROW(FaultInjector(window, util::Rng(1)), std::invalid_argument);
}

TEST(FaultInjector, DeterministicPerSeed) {
  const FaultPlan plan = FaultPlan::uniform(0.5);
  FaultInjector a(plan, util::Rng(99));
  FaultInjector b(plan, util::Rng(99));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.launch_error(), b.launch_error());
    EXPECT_EQ(a.upload_error(), b.upload_error());
    EXPECT_DOUBLE_EQ(a.upload_slowdown(), b.upload_slowdown());
    EXPECT_EQ(a.restore_error(), b.restore_error());
    EXPECT_EQ(a.abrupt_kill(), b.abrupt_kill());
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
  EXPECT_GT(a.injected_total(), 0u);
}

TEST(FaultInjector, StreamsAreIndependent) {
  // Draining one fault class must not shift another class's sequence.
  const FaultPlan plan = FaultPlan::uniform(0.5);
  FaultInjector a(plan, util::Rng(7));
  FaultInjector b(plan, util::Rng(7));
  for (int i = 0; i < 100; ++i) a.launch_error();  // only in `a`
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.upload_error(), b.upload_error());
    EXPECT_EQ(a.abrupt_kill(), b.abrupt_kill());
  }
}

TEST(FaultInjector, DegenerateRatesNeverAndAlwaysFire) {
  FaultInjector off(FaultPlan{}, util::Rng(1));
  FaultInjector on(FaultPlan::uniform(1.0), util::Rng(1));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(off.launch_error());
    EXPECT_TRUE(on.launch_error());
    EXPECT_DOUBLE_EQ(off.upload_slowdown(), 1.0);
    EXPECT_DOUBLE_EQ(on.upload_slowdown(), on.plan().upload_slowdown_factor);
  }
  EXPECT_EQ(off.injected_total(), 0u);
  EXPECT_EQ(on.injected(FaultKind::kLaunchError), 50u);
}

TEST(FaultInjector, StockoutWindowMatchesRegionGpuAndTime) {
  FaultPlan plan;
  plan.stockouts.push_back({cloud::Region::kUsCentral1,
                            cloud::GpuType::kK80, 100.0, 200.0});
  plan.stockouts.push_back(
      {cloud::Region::kEuropeWest1, std::nullopt, 0.0, 50.0});
  FaultInjector injector(plan, util::Rng(1));

  // (region, GPU, time) must all match; end is exclusive.
  EXPECT_TRUE(injector.stocked_out(cloud::Region::kUsCentral1,
                                   cloud::GpuType::kK80, 100.0));
  EXPECT_TRUE(injector.stocked_out(cloud::Region::kUsCentral1,
                                   cloud::GpuType::kK80, 199.9));
  EXPECT_FALSE(injector.stocked_out(cloud::Region::kUsCentral1,
                                    cloud::GpuType::kK80, 200.0));
  EXPECT_FALSE(injector.stocked_out(cloud::Region::kUsCentral1,
                                    cloud::GpuType::kK80, 99.9));
  EXPECT_FALSE(injector.stocked_out(cloud::Region::kUsCentral1,
                                    cloud::GpuType::kP100, 150.0));
  // nullopt GPU covers every type in the region.
  EXPECT_TRUE(injector.stocked_out(cloud::Region::kEuropeWest1,
                                   cloud::GpuType::kV100, 10.0));
  EXPECT_EQ(injector.injected(FaultKind::kStockout), 3u);
}

// ---------------------------------------------------------------------------
// Provider injection site.

TEST(ProviderFaults, LaunchErrorFailsRequestAfterApiRoundTrip) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.launch_error_rate = 1.0;
  FaultInjector injector(plan, util::Rng(2));
  cloud::CloudProvider provider(sim, util::Rng(3));
  provider.set_fault_injector(&injector);

  bool running = false;
  std::optional<cloud::RequestFailureReason> failure;
  double failed_at = -1.0;
  cloud::InstanceCallbacks callbacks;
  callbacks.on_running = [&](cloud::InstanceId) { running = true; };
  callbacks.on_request_failed = [&](cloud::InstanceId,
                                    cloud::RequestFailureReason reason) {
    failure = reason;
    failed_at = sim.now();
  };
  const cloud::InstanceId id =
      provider.request_instance({}, std::move(callbacks));
  sim.run();

  EXPECT_FALSE(running);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(*failure, cloud::RequestFailureReason::kLaunchError);
  EXPECT_DOUBLE_EQ(failed_at, cloud::kRequestFailureResponseSeconds);
  EXPECT_EQ(provider.record(id).state, cloud::InstanceState::kFailed);
  EXPECT_FALSE(provider.record(id).alive());
  EXPECT_DOUBLE_EQ(provider.instance_cost(id), 0.0);  // never billed
}

TEST(ProviderFaults, StockoutDeniesTransientButNotOnDemand) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.stockouts.push_back({cloud::Region::kUsCentral1,
                            cloud::GpuType::kK80, 0.0, 1e9});
  FaultInjector injector(plan, util::Rng(4));
  cloud::CloudProvider provider(sim, util::Rng(5));
  provider.set_fault_injector(&injector);

  std::optional<cloud::RequestFailureReason> transient_failure;
  cloud::InstanceCallbacks transient_cb;
  transient_cb.on_request_failed =
      [&](cloud::InstanceId, cloud::RequestFailureReason reason) {
        transient_failure = reason;
      };
  provider.request_instance({}, std::move(transient_cb));

  bool on_demand_running = false;
  cloud::InstanceRequest on_demand;
  on_demand.transient = false;
  cloud::InstanceCallbacks on_demand_cb;
  on_demand_cb.on_running = [&](cloud::InstanceId) {
    on_demand_running = true;
  };
  on_demand_cb.on_request_failed = [&](cloud::InstanceId,
                                       cloud::RequestFailureReason) {
    FAIL() << "on-demand request must bypass the stockout";
  };
  provider.request_instance(on_demand, std::move(on_demand_cb));
  sim.run();

  ASSERT_TRUE(transient_failure.has_value());
  EXPECT_EQ(*transient_failure, cloud::RequestFailureReason::kStockout);
  EXPECT_TRUE(on_demand_running);
}

TEST(ProviderFaults, TerminateBeforeFailureResponseCancelsCallback) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.launch_error_rate = 1.0;
  FaultInjector injector(plan, util::Rng(6));
  cloud::CloudProvider provider(sim, util::Rng(7));
  provider.set_fault_injector(&injector);

  bool failed = false;
  cloud::InstanceCallbacks callbacks;
  callbacks.on_request_failed = [&](cloud::InstanceId,
                                    cloud::RequestFailureReason) {
    failed = true;
  };
  const cloud::InstanceId id =
      provider.request_instance({}, std::move(callbacks));
  provider.terminate(id);
  sim.run();
  EXPECT_FALSE(failed);
  EXPECT_EQ(provider.record(id).state, cloud::InstanceState::kTerminated);
}

TEST(ProviderFaults, AbruptKillSkipsPreemptionNotice) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.abrupt_kill_rate = 1.0;
  FaultInjector injector(plan, util::Rng(8));
  cloud::CloudProvider provider(sim, util::Rng(9));
  provider.set_fault_injector(&injector);

  // europe-west1 K80s revoke young (Table V), so one request suffices.
  cloud::InstanceRequest request;
  request.region = cloud::Region::kEuropeWest1;
  bool noticed = false;
  bool revoked = false;
  cloud::InstanceCallbacks callbacks;
  callbacks.on_preemption_notice = [&](cloud::InstanceId) { noticed = true; };
  callbacks.on_revoked = [&](cloud::InstanceId) { revoked = true; };
  const cloud::InstanceId id =
      provider.request_instance(request, std::move(callbacks));
  sim.run();

  ASSERT_TRUE(revoked ||
              provider.record(id).state == cloud::InstanceState::kExpired);
  if (provider.record(id).state == cloud::InstanceState::kRevoked) {
    EXPECT_TRUE(provider.record(id).abrupt_kill);
    EXPECT_FALSE(noticed);
  }
}

// ---------------------------------------------------------------------------
// Storage injection site + bytes_stored regression.

TEST(StorageFaults, BytesStoredReplacedOnOverwrite) {
  simcore::Simulator sim;
  cloud::ObjectStore store(sim, util::Rng(10));
  store.upload("ckpt", 1000, [] {});
  sim.run();
  ASSERT_EQ(store.bytes_stored(), 1000u);
  // Overwriting must replace the old size, not leak it into the total.
  store.upload("ckpt", 400, [] {});
  sim.run();
  EXPECT_EQ(store.bytes_stored(), 400u);
  EXPECT_EQ(store.blob_count(), 1u);
  store.upload("other", 50, [] {});
  sim.run();
  EXPECT_EQ(store.bytes_stored(), 450u);
}

TEST(StorageFaults, UploadErrorLeavesNoBlob) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.upload_error_rate = 1.0;
  FaultInjector injector(plan, util::Rng(11));
  cloud::ObjectStore store(sim, util::Rng(12));
  store.set_fault_injector(&injector);

  bool done = false;
  std::string error;
  const double duration =
      store.upload("ckpt", 1 << 20, [&] { done = true; },
                   [&](const std::string& what) { error = what; });
  sim.run();
  EXPECT_GT(duration, 0.0);
  EXPECT_FALSE(done);
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(store.contains("ckpt"));
  EXPECT_EQ(store.bytes_stored(), 0u);
}

TEST(StorageFaults, SlowdownScalesUploadDuration) {
  FaultPlan plan;
  plan.upload_slowdown_rate = 1.0;
  plan.upload_slowdown_factor = 3.0;
  FaultInjector injector(plan, util::Rng(13));

  simcore::Simulator sim_a;
  cloud::ObjectStore baseline(sim_a, util::Rng(14));
  simcore::Simulator sim_b;
  cloud::ObjectStore slowed(sim_b, util::Rng(14));  // same duration stream
  slowed.set_fault_injector(&injector);

  const double base = baseline.upload("k", 1 << 20, [] {});
  const double slow = slowed.upload("k", 1 << 20, [] {});
  EXPECT_NEAR(slow, 3.0 * base, 1e-9);
  sim_a.run();
  sim_b.run();
  EXPECT_TRUE(slowed.contains("k"));  // slowed, not lost
}

TEST(StorageFaults, RestoreMissingKeyReportsError) {
  simcore::Simulator sim;
  cloud::ObjectStore store(sim, util::Rng(15));
  bool done = false;
  std::string error;
  const double duration = store.restore(
      "absent", [&](std::uint64_t) { done = true; },
      [&](const std::string& what) { error = what; });
  sim.run();
  EXPECT_DOUBLE_EQ(duration, 0.0);
  EXPECT_FALSE(done);
  EXPECT_NE(error.find("absent"), std::string::npos);
}

TEST(StorageFaults, RestoreErrorAndTryRestore) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.restore_error_rate = 1.0;
  FaultInjector injector(plan, util::Rng(16));
  cloud::ObjectStore store(sim, util::Rng(17));
  store.upload("ckpt", 2048, [] {});
  sim.run();
  ASSERT_TRUE(store.contains("ckpt"));

  store.set_fault_injector(&injector);
  bool done = false;
  std::string error;
  store.restore("ckpt", [&](std::uint64_t) { done = true; },
                [&](const std::string& what) { error = what; });
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(store.try_restore("ckpt"));

  store.set_fault_injector(nullptr);
  EXPECT_TRUE(store.try_restore("ckpt"));
  EXPECT_FALSE(store.try_restore("absent"));
}

TEST(StorageFaults, TryRestoreReportsPerKeyBytes) {
  // Regression: try_restore used to report the byte count of the last
  // blob written anywhere in the store, not the requested key's.
  simcore::Simulator sim;
  cloud::ObjectStore store(sim, util::Rng(18));
  store.upload("a", 1000, [] {});
  store.upload("b", 500, [] {});
  sim.run();
  EXPECT_EQ(store.try_restore("a"), std::optional<std::uint64_t>(1000));
  EXPECT_EQ(store.try_restore("b"), std::optional<std::uint64_t>(500));

  // An overwrite replaces the key's size; the other key is untouched.
  store.upload("a", 250, [] {});
  sim.run();
  EXPECT_EQ(store.try_restore("a"), std::optional<std::uint64_t>(250));
  EXPECT_EQ(store.try_restore("b"), std::optional<std::uint64_t>(500));
}

// ---------------------------------------------------------------------------
// Resilient control plane.

RunConfig small_run(long steps, int workers) {
  RunConfig config;
  config.session.max_steps = steps;
  config.session.checkpoint_interval_steps = 100;
  config.workers = train::worker_mix(workers, 0, 0);
  return config;
}

TEST(Resilience, RetriesThroughTransientStockout) {
  simcore::Simulator sim;
  FaultPlan plan;
  // Capacity returns after 60 s: backoff alone must ride it out without
  // reaching the fallback ladder (stockouts_before_fallback below).
  plan.stockouts.push_back({cloud::Region::kUsCentral1,
                            cloud::GpuType::kK80, 0.0, 60.0});
  FaultInjector injector(plan, util::Rng(18));
  cloud::CloudProvider provider(sim, util::Rng(19));
  provider.set_fault_injector(&injector);

  RunConfig config = small_run(500, 1);
  config.resilience.stockouts_before_fallback = 100;  // never fall back
  TransientTrainingRun run(provider, nn::resnet15(), config, util::Rng(20));
  run.start();
  sim.run();

  EXPECT_TRUE(run.finished());
  EXPECT_GT(run.counters().launch_retries, 0);
  EXPECT_EQ(run.counters().fallbacks, 0);
  EXPECT_EQ(run.counters().slots_abandoned, 0);
}

TEST(Resilience, PersistentStockoutClimbsToAlternateRegion) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.stockouts.push_back({cloud::Region::kUsCentral1,
                            cloud::GpuType::kK80, 0.0, 1e9});
  FaultInjector injector(plan, util::Rng(21));
  cloud::CloudProvider provider(sim, util::Rng(22));
  provider.set_fault_injector(&injector);

  TransientTrainingRun run(provider, nn::resnet15(), small_run(500, 1),
                           util::Rng(23));
  run.start();
  sim.run();

  EXPECT_TRUE(run.finished());
  EXPECT_GT(run.counters().fallbacks, 0);
  bool placed_elsewhere = false;
  for (const auto& record : provider.records()) {
    if (record.state == cloud::InstanceState::kFailed) continue;
    EXPECT_NE(record.request.region, cloud::Region::kUsCentral1);
    placed_elsewhere = true;
  }
  EXPECT_TRUE(placed_elsewhere);
}

TEST(Resilience, OnDemandRungEscapesGlobalStockout) {
  simcore::Simulator sim;
  FaultPlan plan;
  // Every region's K80 capacity is gone, forever.
  for (const cloud::Region region : cloud::kAllRegions) {
    plan.stockouts.push_back({region, cloud::GpuType::kK80, 0.0, 1e9});
  }
  FaultInjector injector(plan, util::Rng(24));
  cloud::CloudProvider provider(sim, util::Rng(25));
  provider.set_fault_injector(&injector);

  RunConfig config = small_run(500, 1);
  config.resilience.allow_gpu_fallback = false;  // force the last rung
  TransientTrainingRun run(provider, nn::resnet15(), config, util::Rng(26));
  run.start();
  sim.run();

  EXPECT_TRUE(run.finished());
  EXPECT_GE(run.counters().fallbacks, 2);  // region rung, then on-demand
  bool on_demand_used = false;
  for (const auto& record : provider.records()) {
    if (!record.request.transient &&
        record.state != cloud::InstanceState::kFailed) {
      on_demand_used = true;
    }
  }
  EXPECT_TRUE(on_demand_used);
}

TEST(Resilience, AbandonsSlotWhenEveryRungIsClosed) {
  simcore::Simulator sim;
  FaultPlan plan;
  plan.launch_error_rate = 1.0;  // nothing can ever launch
  FaultInjector injector(plan, util::Rng(27));
  cloud::CloudProvider provider(sim, util::Rng(28));
  provider.set_fault_injector(&injector);

  RunConfig config = small_run(500, 1);
  config.resilience.max_launch_attempts = 3;
  TransientTrainingRun run(provider, nn::resnet15(), config, util::Rng(29));
  run.start();
  sim.run();  // must drain without throwing

  EXPECT_FALSE(run.finished());
  EXPECT_EQ(run.counters().slots_abandoned, 1);
  EXPECT_EQ(run.counters().launch_retries, 2);  // attempts 2 and 3
  EXPECT_EQ(run.expected_worker_count(), 0u);
}

TEST(Resilience, GracefulDegradationAtTwentyPercentFaults) {
  simcore::Simulator sim;
  FaultPlan plan = FaultPlan::uniform(0.2);
  plan.stockouts.push_back({cloud::Region::kUsCentral1,
                            cloud::GpuType::kK80, 0.0, 1800.0});
  FaultInjector injector(plan, util::Rng(30));
  cloud::CloudProvider provider(sim, util::Rng(31));
  provider.set_fault_injector(&injector);
  cloud::ObjectStore store(sim, util::Rng(32));
  store.set_fault_injector(&injector);

  TransientTrainingRun run(provider, nn::resnet15(), small_run(1000, 2),
                           util::Rng(33), &store);
  run.start();
  sim.run_until(48 * 3600.0);

  EXPECT_TRUE(run.finished());
  EXPECT_GT(run.counters().launch_retries, 0);
  EXPECT_GT(injector.injected_total(), 0u);
}

TEST(Resilience, DeterministicUnderInjection) {
  auto run_once = [](long& steps, double& cost, int& retries,
                     std::uint64_t& injected) {
    simcore::Simulator sim;
    FaultPlan plan = FaultPlan::uniform(0.2);
    plan.stockouts.push_back({cloud::Region::kUsCentral1,
                              cloud::GpuType::kK80, 0.0, 1800.0});
    FaultInjector injector(plan, util::Rng(34));
    cloud::CloudProvider provider(sim, util::Rng(35));
    provider.set_fault_injector(&injector);
    cloud::ObjectStore store(sim, util::Rng(36));
    store.set_fault_injector(&injector);
    TransientTrainingRun run(provider, nn::resnet15(), small_run(600, 2),
                             util::Rng(37), &store);
    run.start();
    sim.run_until(48 * 3600.0);
    steps = run.completed_steps();
    cost = run.cost_so_far();
    retries = run.counters().launch_retries;
    injected = injector.injected_total();
  };
  long steps_a, steps_b;
  double cost_a, cost_b;
  int retries_a, retries_b;
  std::uint64_t injected_a, injected_b;
  run_once(steps_a, cost_a, retries_a, injected_a);
  run_once(steps_b, cost_b, retries_b, injected_b);
  EXPECT_EQ(steps_a, steps_b);
  EXPECT_DOUBLE_EQ(cost_a, cost_b);
  EXPECT_EQ(retries_a, retries_b);
  EXPECT_EQ(injected_a, injected_b);
}

TEST(Resilience, FaultFreeRunMatchesDetachedInjector) {
  // Attaching a zero-rate injector must not perturb a fault-free run:
  // injection sites draw per-decision, never speculatively.
  auto run_once = [](bool attach, long& steps, double& cost) {
    simcore::Simulator sim;
    FaultPlan plan;  // nothing injected
    FaultInjector injector(plan, util::Rng(38));
    cloud::CloudProvider provider(sim, util::Rng(39));
    if (attach) provider.set_fault_injector(&injector);
    TransientTrainingRun run(provider, nn::resnet15(), small_run(600, 2),
                             util::Rng(40));
    run.start();
    sim.run();
    steps = run.completed_steps();
    cost = run.cost_so_far();
  };
  long steps_a, steps_b;
  double cost_a, cost_b;
  run_once(false, steps_a, cost_a);
  run_once(true, steps_b, cost_b);
  EXPECT_EQ(steps_a, steps_b);
  EXPECT_DOUBLE_EQ(cost_a, cost_b);
}

// ---------------------------------------------------------------------------
// Late/duplicate lifecycle-event hardening (satellite of the fault layer:
// the control plane must log-and-ignore, not throw).

TEST(Resilience, IgnoresLateAndDuplicateLifecycleEvents) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(41));
  TransientTrainingRun run(provider, nn::resnet15(), small_run(300, 1),
                           util::Rng(42));
  run.start();
  sim.run();
  ASSERT_TRUE(run.finished());

  // An instance id the run never placed (requested behind its back).
  const cloud::InstanceId foreign = provider.request_instance({});
  EXPECT_NO_THROW(TransientTrainingRunTestPeer::running(run, foreign));
  EXPECT_NO_THROW(TransientTrainingRunTestPeer::revoked(run, foreign));
  EXPECT_NO_THROW(TransientTrainingRunTestPeer::request_failed(run, foreign));
  // Duplicate revocation of an instance the run does know.
  EXPECT_NO_THROW(TransientTrainingRunTestPeer::revoked(run, 0));
  EXPECT_GE(run.stale_events_ignored(), 3);
  EXPECT_EQ(run.counters().revocations, 0);  // duplicates not double-counted
}

}  // namespace
}  // namespace cmdare::core
