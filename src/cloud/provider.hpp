// Simulated cloud provider: instance lifecycle + revocations + billing.
//
// This is the stand-in for the Google Cloud Compute API the paper drives
// with its resource manager. Instances move through the measured lifecycle
// (PROVISIONING -> STAGING -> RUNNING, Section V-B), transient instances
// get a revocation sampled from the calibrated hazard model plus the hard
// 24-hour lifetime cap, and — like real preemptible VMs — a 30-second
// preemption notice fires before the instance disappears (this is the hook
// transient-TensorFlow uses to notify the parameter server, Section II).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cloud/gpu.hpp"
#include "cloud/region.hpp"
#include "cloud/revocation.hpp"
#include "cloud/startup.hpp"
#include "faults/faults.hpp"
#include "simcore/simulator.hpp"
#include "util/rng.hpp"

namespace cmdare::cloud {

using InstanceId = std::uint64_t;

/// Preemption warning lead time (Google preemptible VMs give 30 s).
inline constexpr double kPreemptionNoticeSeconds = 30.0;

/// API round-trip before a denied instance request reports failure.
inline constexpr double kRequestFailureResponseSeconds = 2.0;

enum class InstanceState {
  kProvisioning,
  kStaging,
  kRunning,
  kTerminated,  // deleted by the customer
  kRevoked,     // preempted by the provider
  kExpired,     // hit the 24-hour transient lifetime cap
  kFailed,      // request denied (stockout / launch error); never booted
};

const char* instance_state_name(InstanceState state);

/// Why an instance request was denied. Stockouts arise two ways: an
/// injected fault window (exogenous), or a finite-capacity pool with no
/// free transient slots (endogenous — see set_pool_capacity). Without
/// either, the provider always succeeds.
enum class RequestFailureReason {
  kStockout,     // no transient capacity for this (region, GPU) right now
  kLaunchError,  // transient API error; retrying may succeed
};

/// Market state of one (region, GPU) transient capacity pool. Defaults —
/// unbounded capacity, 1.0 price multiplier — make the provider behave
/// exactly as the pre-market version, so fleet-free scenarios are
/// bit-for-bit unchanged.
struct PoolState {
  /// Max concurrently alive transient instances; -1 = unbounded.
  int capacity = -1;
  /// Alive transient instances (provisioning counts: the slot is held
  /// from acceptance to terminal state).
  int live = 0;
  /// Spot multiplier on the transient list price, locked into each
  /// instance at request time.
  double price_multiplier = 1.0;
};

const char* request_failure_reason_name(RequestFailureReason reason);

struct InstanceRequest {
  GpuType gpu = GpuType::kK80;
  Region region = Region::kUsCentral1;
  bool transient = true;
  /// Workload marker for the Table V idle-vs-stressed experiment. Has no
  /// effect on the revocation hazard (Section V-C's finding).
  bool stressed = false;
  RequestContext context = RequestContext::kNormal;
};

struct InstanceCallbacks {
  /// Instance reached RUNNING and is usable.
  std::function<void(InstanceId)> on_running;
  /// Preemption notice: fires kPreemptionNoticeSeconds before the kill.
  /// Skipped entirely for abrupt kills (injected notice-less revocations).
  std::function<void(InstanceId)> on_preemption_notice;
  /// Instance is gone (revoked or expired). Not called for terminate().
  std::function<void(InstanceId)> on_revoked;
  /// Request denied: the record exists in state kFailed and no other
  /// callback will ever fire for this id. Fires for injected faults and
  /// for endogenous stockouts (a finite-capacity pool with no free
  /// slot), kRequestFailureResponseSeconds after the request (the API
  /// round-trip).
  std::function<void(InstanceId, RequestFailureReason)> on_request_failed;
};

struct InstanceRecord {
  InstanceId id = 0;
  InstanceRequest request;
  InstanceState state = InstanceState::kProvisioning;
  StartupBreakdown startup;
  simcore::SimTime requested_at = 0.0;
  simcore::SimTime running_at = -1.0;  // -1 until RUNNING
  simcore::SimTime ended_at = -1.0;    // -1 until terminal
  /// Local hour-of-day at which the instance reached RUNNING.
  double running_local_hour = 0.0;
  /// Revocation arrived with no preemption notice (injected abrupt kill).
  bool abrupt_kill = false;
  /// USD per GPU-hour locked in at request time (list price times the
  /// pool's spot multiplier for transient instances). instance_cost
  /// bills against this, so later market moves never reprice a running
  /// instance.
  double price_per_hour = 0.0;

  bool alive() const {
    return state == InstanceState::kProvisioning ||
           state == InstanceState::kStaging || state == InstanceState::kRunning;
  }
  /// Lifetime from RUNNING to end; requires a terminal state.
  double running_lifetime_seconds() const;
};

class CloudProvider {
 public:
  /// `campaign_start_utc_hour` fixes the wall-clock alignment of sim time
  /// zero, which drives the local-time revocation modulation.
  CloudProvider(simcore::Simulator& sim, util::Rng rng,
                double campaign_start_utc_hour = 12.0);

  /// Requests an instance; lifecycle events fire through `callbacks`.
  /// Throws std::invalid_argument if the GPU is not offered in the region
  /// (the Table V "N/A" combinations). With a fault injector attached the
  /// request may be denied: the returned record then finishes in state
  /// kFailed and callbacks.on_request_failed fires instead of on_running.
  InstanceId request_instance(const InstanceRequest& request,
                              InstanceCallbacks callbacks = {});

  /// Attaches a fault injector (non-owning; nullptr detaches). Without
  /// one, request_instance never fails and every revocation carries the
  /// full preemption notice — the pre-fault-layer contract. If the
  /// injector's plan carries OutageStorms their burst/clear events are
  /// armed here (once); storm-free plans schedule nothing, so existing
  /// seeds stay bit-identical.
  void set_fault_injector(faults::FaultInjector* injector);
  faults::FaultInjector* fault_injector() const { return fault_injector_; }

  // --- outage storms (correlated failures) -----------------------------
  // A storm's burst abruptly revokes the drawn fraction of in-scope live
  // transient instances; its tail [start_s, end_s) then denies in-scope
  // transient requests like a stockout, scales the sampled revocation
  // hazard, and slows startup. State is derived from the plan's windows,
  // so the tail needs no bookkeeping events.

  /// True while any storm tail covers the (region, GPU) pool.
  bool outage_active(Region region, GpuType gpu) const;
  /// Product of the hazard multipliers of every active covering storm.
  double outage_hazard_multiplier(Region region, GpuType gpu) const;
  /// Product of the startup slowdowns of every active covering storm.
  double outage_startup_slowdown(Region region, GpuType gpu) const;

  /// Instances revoked by storm bursts / requests denied by storm tails.
  std::uint64_t outage_revocations() const { return outage_revocations_; }
  std::uint64_t outage_denials() const { return outage_denials_; }

  /// Customer-initiated deletion; safe in any non-terminal state.
  void terminate(InstanceId id);

  // --- market interface (fleet layer) ----------------------------------
  // Per-(region, GPU) transient pools with finite supply and demand-
  // driven pricing. All defaults preserve the unbounded pre-market
  // behavior; only callers that configure capacities see any change.

  /// Caps the pool's concurrently alive transient instances; -1 restores
  /// the unbounded default. A full pool denies further transient
  /// requests with an *endogenous* kStockout (no fault injector needed).
  void set_pool_capacity(Region region, GpuType gpu, int capacity);
  int pool_capacity(Region region, GpuType gpu) const;
  /// Alive transient instances currently holding a slot in the pool.
  int live_transient_count(Region region, GpuType gpu) const;

  /// Spot multiplier on the transient list price (must be finite, > 0).
  /// Applies to instances requested *after* the call; running instances
  /// keep the rate they were acquired at.
  void set_price_multiplier(Region region, GpuType gpu, double multiplier);
  double price_multiplier(Region region, GpuType gpu) const;
  /// Current transient $/GPU-hour: list price x spot multiplier.
  double current_transient_price(Region region, GpuType gpu) const;

  /// Enables/disables hazard-sampled revocations (default on). With them
  /// off only the 24 h lifetime cap ends a transient instance by itself —
  /// the fleet market turns this off so every revocation is endogenous
  /// (reclaim / price-out) rather than an exogenous hazard draw.
  void set_hazard_revocations(bool enabled) { hazard_revocations_ = enabled; }
  bool hazard_revocations() const { return hazard_revocations_; }

  /// Provider-initiated revocation (capacity reclamation or price-out):
  /// cancels the instance's hazard timeline and revokes it immediately,
  /// firing on_revoked. `reason` lands in the ledger event detail. No-op
  /// on non-alive instances.
  void reclaim(InstanceId id, const char* reason);

  /// Publishes capacity / live-count / current-price gauges for every
  /// bounded pool into the ambient obs registry (cloud.market.*). Pools
  /// left at the unbounded default stay silent, so fleet-free runs'
  /// metric snapshots are unchanged. No-op without telemetry.
  void export_market_gauges() const;

  const InstanceRecord& record(InstanceId id) const;
  std::size_t instance_count() const { return records_.size(); }
  const std::vector<InstanceRecord>& records() const { return records_; }

  /// Accrued cost in USD: per-second billing of the GPU list price from
  /// RUNNING to end (or to now for live instances).
  double instance_cost(InstanceId id) const;
  double total_cost() const;

  /// Emits a ledger billing event for every still-alive RUNNING instance
  /// covering [running_at, now]. Terminal instances bill themselves when
  /// they end; this closes the books for horizon-limited runs that stop
  /// with instances still up. Call at most once, at collection time —
  /// no-op when telemetry is disabled.
  void record_billing_ticks();

  double local_hour_now(Region region) const;
  double campaign_start_utc_hour() const { return campaign_start_utc_hour_; }

  const StartupModel& startup_model() const { return startup_model_; }
  const RevocationModel& revocation_model() const { return *revocation_model_; }
  simcore::Simulator& simulator() { return *sim_; }

 private:
  InstanceRecord& mutable_record(InstanceId id);
  void finish(InstanceId id, InstanceState terminal,
              const char* reason = nullptr);
  PoolState& pool(Region region, GpuType gpu);
  const PoolState& pool(Region region, GpuType gpu) const;
  void arm_storms();
  void storm_burst(std::size_t index);
  void storm_clear(std::size_t index);
  void set_outage_gauge(const faults::OutageStorm& storm, double value) const;

  simcore::Simulator* sim_;
  util::Rng rng_;
  faults::FaultInjector* fault_injector_ = nullptr;
  double campaign_start_utc_hour_;
  StartupModel startup_model_;
  const RevocationModel* revocation_model_ = &calibrated_revocation_model();
  std::vector<InstanceRecord> records_;
  std::vector<InstanceCallbacks> callbacks_;
  std::vector<simcore::EventHandle> pending_events_;
  std::vector<simcore::EventHandle> pending_notices_;
  PoolState pools_[kAllRegions.size()][kAllGpuTypes.size()];
  bool hazard_revocations_ = true;
  bool storms_armed_ = false;
  std::uint64_t outage_revocations_ = 0;
  std::uint64_t outage_denials_ = 0;
};

}  // namespace cmdare::cloud
