#include <gtest/gtest.h>

#include "cloud/provider.hpp"
#include "cloud/storage.hpp"
#include "simcore/simulator.hpp"

namespace cmdare::cloud {
namespace {

InstanceRequest k80_request(bool transient = true) {
  InstanceRequest request;
  request.gpu = GpuType::kK80;
  request.region = Region::kUsCentral1;
  request.transient = transient;
  return request;
}

TEST(Provider, InstanceWalksLifecycleStages) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(1));
  bool running = false;
  InstanceCallbacks callbacks;
  callbacks.on_running = [&](InstanceId) { running = true; };
  const InstanceId id =
      provider.request_instance(k80_request(), std::move(callbacks));

  EXPECT_EQ(provider.record(id).state, InstanceState::kProvisioning);
  const StartupBreakdown& startup = provider.record(id).startup;
  sim.run_until(startup.provisioning_s + 0.01);
  EXPECT_EQ(provider.record(id).state, InstanceState::kStaging);
  sim.run_until(startup.provisioning_s + startup.staging_s + 0.01);
  EXPECT_EQ(provider.record(id).state, InstanceState::kRunning);
  sim.run_until(startup.total() + 0.01);
  EXPECT_TRUE(running);
  EXPECT_NEAR(provider.record(id).running_at, startup.total(), 1e-9);
}

TEST(Provider, TransientInstanceEndsWithin24Hours) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(2));
  bool revoked_fired = false;
  InstanceCallbacks callbacks;
  callbacks.on_revoked = [&](InstanceId) { revoked_fired = true; };
  const InstanceId id =
      provider.request_instance(k80_request(), std::move(callbacks));
  sim.run();

  const InstanceRecord& record = provider.record(id);
  EXPECT_TRUE(record.state == InstanceState::kRevoked ||
              record.state == InstanceState::kExpired);
  EXPECT_TRUE(revoked_fired);
  EXPECT_LE(record.running_lifetime_seconds(),
            kMaxTransientLifetimeSeconds + 1.0);
}

TEST(Provider, OnDemandInstanceIsNeverRevoked) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(3));
  const InstanceId id = provider.request_instance(k80_request(false));
  sim.run();  // only lifecycle events; no revocation scheduled
  EXPECT_EQ(provider.record(id).state, InstanceState::kRunning);
  EXPECT_DOUBLE_EQ(sim.now(), provider.record(id).startup.total());
}

TEST(Provider, PreemptionNoticeLeadsRevocationBy30Seconds) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(4));
  double notice_at = -1.0, revoked_at = -1.0;
  InstanceCallbacks callbacks;
  callbacks.on_preemption_notice = [&](InstanceId) { notice_at = sim.now(); };
  callbacks.on_revoked = [&](InstanceId) { revoked_at = sim.now(); };
  provider.request_instance(k80_request(), std::move(callbacks));
  sim.run();
  ASSERT_GE(revoked_at, 0.0);
  if (notice_at >= 0.0) {  // notice skipped only for sub-30s lifetimes
    EXPECT_NEAR(revoked_at - notice_at, kPreemptionNoticeSeconds, 1e-6);
  }
}

TEST(Provider, TerminateCancelsFutureRevocation) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(5));
  bool revoked_fired = false;
  InstanceCallbacks callbacks;
  callbacks.on_revoked = [&](InstanceId) { revoked_fired = true; };
  const InstanceId id =
      provider.request_instance(k80_request(), std::move(callbacks));
  sim.schedule_at(600.0, [&] { provider.terminate(id); });
  sim.run();
  EXPECT_EQ(provider.record(id).state, InstanceState::kTerminated);
  EXPECT_FALSE(revoked_fired);
  EXPECT_DOUBLE_EQ(provider.record(id).ended_at, 600.0);
}

TEST(Provider, TerminateDuringProvisioningIsSafe) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(6));
  bool running = false;
  InstanceCallbacks callbacks;
  callbacks.on_running = [&](InstanceId) { running = true; };
  const InstanceId id =
      provider.request_instance(k80_request(), std::move(callbacks));
  sim.schedule_at(1.0, [&] { provider.terminate(id); });
  sim.run();
  EXPECT_EQ(provider.record(id).state, InstanceState::kTerminated);
  EXPECT_FALSE(running);
}

TEST(Provider, RejectsUnofferedTransientCombination) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(7));
  InstanceRequest request;
  request.gpu = GpuType::kV100;
  request.region = Region::kUsEast1;  // N/A in Table V
  request.transient = true;
  EXPECT_THROW(provider.request_instance(request), std::invalid_argument);
  // The same combination on-demand is fine.
  request.transient = false;
  EXPECT_NO_THROW(provider.request_instance(request));
}

// Providers share one calibration, and it equals the reference model's.
TEST(CloudProvider, SharesTheCalibratedRevocationModel) {
  simcore::Simulator sim;
  const CloudProvider first(sim, util::Rng(1));
  const CloudProvider second(sim, util::Rng(2));
  EXPECT_EQ(&first.revocation_model(), &second.revocation_model());
  EXPECT_EQ(&first.revocation_model(), &calibrated_revocation_model());
  const RevocationModel fresh;
  for (const RevocationTarget& t : revocation_targets()) {
    EXPECT_EQ(first.revocation_model().base_rate_per_hour(t.region, t.gpu),
              fresh.base_rate_per_hour(t.region, t.gpu));
  }
}

TEST(Provider, CostAccruesOnlyWhileRunning) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(8));
  const InstanceId id = provider.request_instance(k80_request(false));
  EXPECT_DOUBLE_EQ(provider.instance_cost(id), 0.0);
  const double startup = provider.record(id).startup.total();
  sim.run_until(startup + 3600.0);  // one running hour
  EXPECT_NEAR(provider.instance_cost(id),
              gpu_spec(GpuType::kK80).on_demand_price, 1e-6);
  provider.terminate(id);
  sim.run_until(startup + 7200.0);
  EXPECT_NEAR(provider.instance_cost(id),
              gpu_spec(GpuType::kK80).on_demand_price, 1e-6);  // frozen
}

TEST(Provider, TransientCostUsesDiscountedRate) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(9));
  const InstanceId id = provider.request_instance(k80_request(true));
  const double startup = provider.record(id).startup.total();
  sim.run_until(startup + 3600.0);
  const InstanceRecord& record = provider.record(id);
  if (record.state == InstanceState::kRunning) {
    EXPECT_NEAR(provider.instance_cost(id),
                gpu_spec(GpuType::kK80).transient_price, 1e-6);
  }
  EXPECT_GE(provider.total_cost(), provider.instance_cost(id));
}

TEST(Provider, RecordLookupValidation) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(10));
  EXPECT_THROW(provider.record(0), std::out_of_range);
  EXPECT_THROW(provider.terminate(3), std::out_of_range);
}

TEST(Provider, LocalHourTracksSimTime) {
  simcore::Simulator sim;
  CloudProvider provider(sim, util::Rng(11), /*campaign_start_utc_hour=*/15.0);
  EXPECT_DOUBLE_EQ(provider.local_hour_now(Region::kUsCentral1), 9.0);
  sim.run_until(2.0 * 3600.0);
  EXPECT_DOUBLE_EQ(provider.local_hour_now(Region::kUsCentral1), 11.0);
}

TEST(ObjectStore, UploadBecomesDurableAfterDelay) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(12));
  bool done = false;
  const double duration =
      store.upload("ckpt-1", 10 * 1000 * 1000, [&] { done = true; });
  EXPECT_GT(duration, 0.0);
  EXPECT_FALSE(store.contains("ckpt-1"));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(store.contains("ckpt-1"));
  EXPECT_EQ(store.blob_size("ckpt-1"), 10u * 1000 * 1000);
  EXPECT_EQ(store.blob_count(), 1u);
  EXPECT_EQ(store.bytes_stored(), 10u * 1000 * 1000);
}

TEST(ObjectStore, OverwriteKeepsSingleBlob) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(13));
  store.upload("k", 100, nullptr);
  sim.run();  // first write durable before the overwrite starts
  store.upload("k", 200, nullptr);
  sim.run();
  EXPECT_EQ(store.blob_count(), 1u);
  EXPECT_EQ(store.blob_size("k"), 200u);
}

TEST(ObjectStore, ValidatesKey) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(14));
  EXPECT_THROW(store.upload("", 1, nullptr), std::invalid_argument);
  EXPECT_THROW(store.blob_size("missing"), std::out_of_range);
}

}  // namespace
}  // namespace cmdare::cloud
