// Replacement paths around revocations: warm vs cold overhead
// distributions (Section V-D, Figure 10), termination while an instance
// is still PROVISIONING, and the 30 s preemption-notice timing contract.
#include <gtest/gtest.h>

#include <vector>

#include "cloud/provider.hpp"
#include "cmdare/resource_manager.hpp"
#include "nn/model_zoo.hpp"
#include "simcore/simulator.hpp"
#include "stats/descriptive.hpp"
#include "train/cluster.hpp"
#include "train/replacement.hpp"

namespace cmdare {
namespace {

TEST(ReplacementSampling, ColdStartsCostMoreThanWarmStarts) {
  const nn::CnnModel model = nn::resnet15();
  util::Rng rng(1);
  std::vector<double> warm;
  std::vector<double> cold;
  for (int i = 0; i < 400; ++i) {
    warm.push_back(train::sample_warm_replacement_seconds(model, rng));
    cold.push_back(train::sample_cold_replacement_seconds(model, rng));
  }
  for (double v : warm) EXPECT_GT(v, 0.0);
  for (double v : cold) EXPECT_GT(v, 0.0);
  // Cold start = warm-start work plus environment prep + shard download,
  // so the whole distribution sits higher, not just the mean.
  EXPECT_GT(stats::mean(cold), stats::mean(warm));
  EXPECT_GT(stats::quantile(cold, 0.10), stats::quantile(warm, 0.50));
}

TEST(ReplacementSampling, WarmAndColdScaleWithModelSize) {
  // Graph rebuild / shard size grow with the model, and so should the
  // sampled overheads (resnet-32 vs resnet-15 means).
  util::Rng rng(2);
  std::vector<double> small_cold;
  std::vector<double> big_cold;
  for (int i = 0; i < 400; ++i) {
    small_cold.push_back(
        train::sample_cold_replacement_seconds(nn::resnet15(), rng));
    big_cold.push_back(
        train::sample_cold_replacement_seconds(nn::resnet32(), rng));
  }
  EXPECT_GT(stats::mean(big_cold), stats::mean(small_cold));
}

TEST(ProviderLifecycle, TerminateDuringProvisioningFiresNoCallbacks) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(3));
  bool running = false;
  bool revoked = false;
  bool noticed = false;
  cloud::InstanceCallbacks callbacks;
  callbacks.on_running = [&](cloud::InstanceId) { running = true; };
  callbacks.on_revoked = [&](cloud::InstanceId) { revoked = true; };
  callbacks.on_preemption_notice = [&](cloud::InstanceId) { noticed = true; };
  const cloud::InstanceId id =
      provider.request_instance({}, std::move(callbacks));
  ASSERT_EQ(provider.record(id).state, cloud::InstanceState::kProvisioning);

  // Revoke-equivalent customer action mid-PROVISIONING: the instance must
  // go straight to TERMINATED and none of the lifecycle callbacks fire.
  sim.run_until(1.0);
  provider.terminate(id);
  sim.run();
  EXPECT_EQ(provider.record(id).state, cloud::InstanceState::kTerminated);
  EXPECT_FALSE(running);
  EXPECT_FALSE(revoked);
  EXPECT_FALSE(noticed);
  EXPECT_LT(provider.record(id).running_at, 0.0);  // never reached RUNNING
  EXPECT_DOUBLE_EQ(provider.instance_cost(id), 0.0);
}

TEST(ProviderLifecycle, NoticeFiresExactlyThirtySecondsBeforeKill) {
  // Sample until a revocation with a notice occurs; europe-west1 K80s
  // revoke young (Table V), so a handful of instances suffices.
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(4));
  int checked = 0;
  for (int i = 0; i < 20; ++i) {
    cloud::InstanceRequest request;
    request.region = cloud::Region::kEuropeWest1;
    double notice_at = -1.0;
    double revoked_at = -1.0;
    cloud::InstanceCallbacks callbacks;
    callbacks.on_preemption_notice = [&](cloud::InstanceId) {
      notice_at = sim.now();
    };
    callbacks.on_revoked = [&](cloud::InstanceId) { revoked_at = sim.now(); };
    const cloud::InstanceId id =
        provider.request_instance(request, std::move(callbacks));
    sim.run();
    if (provider.record(id).state == cloud::InstanceState::kRevoked &&
        notice_at >= 0.0) {
      ASSERT_GE(revoked_at, 0.0);
      EXPECT_NEAR(revoked_at - notice_at, cloud::kPreemptionNoticeSeconds,
                  1e-6);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ProviderLifecycle, ExpiryAtLifetimeCapCarriesNotice) {
  // An instance that survives to the 24 h cap is also killed with the
  // standard notice (the cap is a scheduled revocation, not a crash).
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(5));
  for (int i = 0; i < 40; ++i) {
    cloud::InstanceRequest request;
    request.region = cloud::Region::kUsCentral1;  // longest-lived (Table V)
    double notice_at = -1.0;
    cloud::InstanceCallbacks callbacks;
    callbacks.on_preemption_notice = [&](cloud::InstanceId) {
      notice_at = sim.now();
    };
    const cloud::InstanceId id =
        provider.request_instance(request, std::move(callbacks));
    sim.run();
    if (provider.record(id).state == cloud::InstanceState::kExpired) {
      const double ended = provider.record(id).ended_at;
      EXPECT_NEAR(ended - notice_at, cloud::kPreemptionNoticeSeconds, 1e-6);
      return;
    }
  }
  FAIL() << "no instance reached the 24 h lifetime cap";
}

}  // namespace
}  // namespace cmdare

namespace cmdare::core {

/// Test seam (befriended by TransientTrainingRun): drives the private
/// provider-event handlers directly to simulate event orderings the
/// provider would normally serialize — specifically a revocation notice
/// and a heartbeat-timeout detection racing for the same instance.
class TransientTrainingRunTestPeer {
 public:
  static void failure_detected(TransientTrainingRun& run,
                               cloud::InstanceId id) {
    run.handle_failure_detected(id);
  }
  static void revoked(TransientTrainingRun& run, cloud::InstanceId id) {
    run.handle_revoked(id);
  }
};

namespace {

RunConfig supervised_single_worker(long steps) {
  RunConfig config;
  config.session.max_steps = steps;
  config.session.checkpoint_interval_steps = 2000;
  config.workers = train::worker_mix(1, 0, 0);
  // europe-west1 K80s die young (Table V), guaranteeing a natural
  // revocation well before a long run completes.
  for (auto& w : config.workers) w.region = cloud::Region::kEuropeWest1;
  config.supervision.enabled = true;
  return config;
}

TEST(SupervisedReplacement, LateRevocationAfterDetectionIsStale) {
  // Ordering 1: the detector flags a worker first (false positive), the
  // run fences and replaces it, and THEN the revocation event for the
  // same instance arrives. The late event must be ignored — a second
  // replacement would double-fill the slot.
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(40));
  TransientTrainingRun run(provider, nn::resnet15(),
                           supervised_single_worker(20000), util::Rng(41));
  run.start();
  sim.run_until(600.0);

  bool found = false;
  cloud::InstanceId live = 0;
  for (const cloud::InstanceRecord& record : provider.records()) {
    if (record.state == cloud::InstanceState::kRunning) {
      live = record.id;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "worker never reached RUNNING";

  TransientTrainingRunTestPeer::failure_detected(run, live);
  EXPECT_EQ(run.counters().fenced_workers, 1);
  EXPECT_EQ(run.counters().replacements, 1);
  const int stale_before = run.stale_events_ignored();

  // The racing revocation for the fenced instance arrives late.
  TransientTrainingRunTestPeer::revoked(run, live);
  EXPECT_EQ(run.counters().replacements, 1);  // no double replacement
  EXPECT_EQ(run.stale_events_ignored(), stale_before + 1);

  sim.run();
  EXPECT_TRUE(run.session().finished());
}

TEST(SupervisedReplacement, LateDetectionAfterNoticedRevocationIsStale) {
  // Ordering 2: a noticed revocation replaces the worker through the
  // normal path; a detection verdict for the same instance lands
  // afterwards. With no pending deferred replacement it must be stale.
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(42));
  // 2M steps at single-K80 speed outlasts the 24 h preemptible lifetime
  // cap, so a (noticed) revocation is guaranteed regardless of seed.
  TransientTrainingRun run(provider, nn::resnet15(),
                           supervised_single_worker(2000000), util::Rng(43));
  run.start();

  double t = 0.0;
  while (run.counters().revocations == 0 && t < 26.0 * 3600.0) {
    t += 600.0;
    sim.run_until(t);
  }
  ASSERT_GT(run.counters().revocations, 0) << "no revocation within 26 h";
  ASSERT_FALSE(run.session().finished());

  // The market hazard ends an instance as REVOKED; the 24 h preemptible
  // lifetime cap ends it as EXPIRED. Both arrive through on_revoked.
  bool found = false;
  cloud::InstanceId dead = 0;
  for (const cloud::InstanceRecord& record : provider.records()) {
    if (record.state == cloud::InstanceState::kRevoked ||
        record.state == cloud::InstanceState::kExpired) {
      dead = record.id;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  const int replacements = run.counters().replacements;
  const int stale_before = run.stale_events_ignored();
  TransientTrainingRunTestPeer::failure_detected(run, dead);
  EXPECT_EQ(run.counters().replacements, replacements);
  EXPECT_EQ(run.detected_failures(), 0);
  EXPECT_EQ(run.stale_events_ignored(), stale_before + 1);
}

}  // namespace
}  // namespace cmdare::core
