#include "cloud/provider.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace cmdare::cloud {

const char* instance_state_name(InstanceState state) {
  switch (state) {
    case InstanceState::kProvisioning:
      return "PROVISIONING";
    case InstanceState::kStaging:
      return "STAGING";
    case InstanceState::kRunning:
      return "RUNNING";
    case InstanceState::kTerminated:
      return "TERMINATED";
    case InstanceState::kRevoked:
      return "REVOKED";
    case InstanceState::kExpired:
      return "EXPIRED";
    case InstanceState::kFailed:
      return "FAILED";
  }
  return "?";
}

const char* request_failure_reason_name(RequestFailureReason reason) {
  switch (reason) {
    case RequestFailureReason::kStockout:
      return "stockout";
    case RequestFailureReason::kLaunchError:
      return "launch_error";
  }
  return "?";
}

double InstanceRecord::running_lifetime_seconds() const {
  if (running_at < 0.0 || ended_at < 0.0) {
    throw std::logic_error(
        "running_lifetime_seconds: instance not RUNNING+ended");
  }
  return ended_at - running_at;
}

CloudProvider::CloudProvider(simcore::Simulator& sim, util::Rng rng,
                             double campaign_start_utc_hour)
    : sim_(&sim),
      rng_(rng),
      campaign_start_utc_hour_(campaign_start_utc_hour) {}

double CloudProvider::local_hour_now(Region region) const {
  return local_hour(region, campaign_start_utc_hour_, sim_->now());
}

void CloudProvider::set_fault_injector(faults::FaultInjector* injector) {
  fault_injector_ = injector;
  arm_storms();
}

void CloudProvider::arm_storms() {
  if (storms_armed_ || fault_injector_ == nullptr) return;
  const std::vector<faults::OutageStorm>& storms =
      fault_injector_->plan().storms;
  if (storms.empty()) return;  // storm-free plans schedule nothing
  storms_armed_ = true;
  for (std::size_t i = 0; i < storms.size(); ++i) {
    sim_->schedule_at(
        storms[i].start_s, [this, i] { storm_burst(i); }, "provider.storm");
    sim_->schedule_at(
        storms[i].end_s, [this, i] { storm_clear(i); }, "provider.storm");
  }
}

void CloudProvider::set_outage_gauge(const faults::OutageStorm& storm,
                                     double value) const {
  obs::Registry* registry = obs::registry();
  if (registry == nullptr) return;
  for (const GpuType gpu : kAllGpuTypes) {
    if (storm.gpu && *storm.gpu != gpu) continue;
    registry
        ->gauge("cloud.outage.active", {{"gpu", gpu_name(gpu)},
                                        {"region", region_name(storm.region)}})
        .set(value);
  }
}

void CloudProvider::storm_burst(std::size_t index) {
  if (fault_injector_ == nullptr) return;  // detached after arming
  const faults::OutageStorm storm = fault_injector_->plan().storms[index];
  set_outage_gauge(storm, 1.0);
  // Collect victims first: on_revoked callbacks may request replacement
  // instances, growing records_ mid-sweep.
  std::vector<InstanceId> victims;
  for (const InstanceRecord& r : records_) {
    if (!r.alive() || !r.request.transient) continue;
    if (r.request.region != storm.region) continue;
    if (storm.gpu && *storm.gpu != r.request.gpu) continue;
    if (fault_injector_->storm_kill(storm.kill_fraction)) {
      victims.push_back(r.id);
    }
  }
  for (const InstanceId id : victims) {
    if (!records_[id].alive()) continue;  // a victim's callback got here
    pending_events_[id].cancel();
    pending_notices_[id].cancel();
    // Mass capacity loss gives no per-instance warning: storm kills are
    // abrupt, so supervised runs pay detection latency for them too.
    records_[id].abrupt_kill = true;
    ++outage_revocations_;
    if (obs::Registry* registry = obs::registry()) {
      registry->counter("cloud.outage.revocations_total").inc();
    }
    finish(id, InstanceState::kRevoked, "storm");
    // Copy before invoking: the handler may request replacements, which
    // can reallocate callbacks_ under the invocation.
    if (const auto on_revoked = callbacks_[id].on_revoked) on_revoked(id);
  }
  LOG_INFO << "outage storm struck " << region_name(storm.region) << ": "
           << victims.size() << " instance(s) revoked";
}

void CloudProvider::storm_clear(std::size_t index) {
  if (fault_injector_ == nullptr) return;
  obs::Registry* registry = obs::registry();
  if (registry == nullptr) return;
  const faults::OutageStorm& storm = fault_injector_->plan().storms[index];
  for (const GpuType gpu : kAllGpuTypes) {
    if (storm.gpu && *storm.gpu != gpu) continue;
    // Tails are half-open, so at end_s this storm no longer covers; only
    // clear the gauge if no *other* storm still does.
    if (outage_active(storm.region, gpu)) continue;
    registry
        ->gauge("cloud.outage.active", {{"gpu", gpu_name(gpu)},
                                        {"region", region_name(storm.region)}})
        .set(0.0);
  }
}

bool CloudProvider::outage_active(Region region, GpuType gpu) const {
  if (fault_injector_ == nullptr) return false;
  for (const faults::OutageStorm& storm : fault_injector_->plan().storms) {
    if (storm.covers(region, gpu, sim_->now())) return true;
  }
  return false;
}

double CloudProvider::outage_hazard_multiplier(Region region,
                                               GpuType gpu) const {
  double multiplier = 1.0;
  if (fault_injector_ == nullptr) return multiplier;
  for (const faults::OutageStorm& storm : fault_injector_->plan().storms) {
    if (storm.covers(region, gpu, sim_->now())) {
      multiplier *= storm.hazard_multiplier;
    }
  }
  return multiplier;
}

double CloudProvider::outage_startup_slowdown(Region region,
                                              GpuType gpu) const {
  double slowdown = 1.0;
  if (fault_injector_ == nullptr) return slowdown;
  for (const faults::OutageStorm& storm : fault_injector_->plan().storms) {
    if (storm.covers(region, gpu, sim_->now())) {
      slowdown *= storm.startup_slowdown;
    }
  }
  return slowdown;
}

InstanceId CloudProvider::request_instance(const InstanceRequest& request,
                                           InstanceCallbacks callbacks) {
  if (request.transient &&
      !gpu_offered_in_region(request.region, request.gpu)) {
    throw std::invalid_argument(
        std::string("request_instance: transient ") + gpu_name(request.gpu) +
        " not offered in " + region_name(request.region));
  }

  const InstanceId id = records_.size();
  InstanceRecord record;
  record.id = id;
  record.request = request;
  record.requested_at = sim_->now();
  record.state = InstanceState::kProvisioning;
  record.startup = startup_model_.sample(request.gpu, request.region,
                                         request.transient, request.context,
                                         rng_);
  // Partial degradation during an outage tail: in-scope launches crawl.
  // The sample above is drawn unconditionally so the rng_ stream is
  // untouched when no storm covers the pool.
  if (const double slow = outage_startup_slowdown(request.region, request.gpu);
      slow > 1.0) {
    record.startup.provisioning_s *= slow;
    record.startup.staging_s *= slow;
    record.startup.running_s *= slow;
  }
  record.price_per_hour =
      request.transient
          ? gpu_spec(request.gpu).transient_price *
                pool(request.region, request.gpu).price_multiplier
          : gpu_spec(request.gpu).on_demand_price;
  records_.push_back(record);
  callbacks_.push_back(std::move(callbacks));
  pending_events_.emplace_back();
  pending_notices_.emplace_back();

  if (obs::Registry* registry = obs::registry()) {
    registry
        ->counter("cloud.instances_total", {{"gpu", gpu_name(request.gpu)},
                                            {"region",
                                             region_name(request.region)}})
        .inc();
  }
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kLaunchAttempt;
    event.at = sim_->now();
    event.source = "cloud";
    event.instance = static_cast<long long>(id);
    event.detail = {{"gpu", gpu_name(request.gpu)},
                    {"region", region_name(request.region)},
                    {"transient", request.transient ? "true" : "false"}};
    ledger->record(std::move(event));
  }

  // Denial paths, checked in market-then-fault order. An endogenous
  // stockout — a finite-capacity pool with every transient slot held —
  // needs no fault injector: it is the market itself saying no. The
  // fault layer then adds exogenous stockout windows and transient
  // launch errors. Either way the caller hears about it via
  // on_request_failed after the API round-trip. Stockouts model
  // exhausted *preemptible* capacity, so on-demand requests bypass them
  // (this is what makes the fallback ladder's on-demand rung a
  // guaranteed way out).
  std::optional<RequestFailureReason> failure;
  {
    const PoolState& p = pool(request.region, request.gpu);
    if (request.transient && p.capacity >= 0 && p.live >= p.capacity) {
      failure = RequestFailureReason::kStockout;
    }
  }
  if (!failure && fault_injector_ != nullptr) {
    if (request.transient &&
        fault_injector_->stocked_out(request.region, request.gpu,
                                     sim_->now())) {
      failure = RequestFailureReason::kStockout;
    } else if (request.transient &&
               outage_active(request.region, request.gpu)) {
      // Storm tail: the pool's transient capacity is gone until the
      // storm clears. On-demand requests bypass, like any stockout.
      failure = RequestFailureReason::kStockout;
      ++outage_denials_;
      if (obs::Registry* registry = obs::registry()) {
        registry->counter("cloud.outage.denials_total").inc();
      }
    } else if (fault_injector_->launch_error()) {
      failure = RequestFailureReason::kLaunchError;
    }
  }
  if (failure) {
    pending_events_[id] = sim_->schedule_after(
        kRequestFailureResponseSeconds,
        [this, id, reason = *failure] {
          if (!records_[id].alive()) return;  // terminated meanwhile
          finish(id, InstanceState::kFailed);
          if (obs::Registry* registry = obs::registry()) {
            registry
                ->counter("cloud.request_failures_total",
                          {{"reason", request_failure_reason_name(reason)}})
                .inc();
          }
          if (obs::Ledger* ledger = obs::ledger()) {
            obs::LedgerEvent event;
            event.kind = obs::LedgerEventKind::kLaunchFailed;
            event.at = sim_->now();
            event.source = "cloud";
            event.instance = static_cast<long long>(id);
            event.detail = {
                {"reason", request_failure_reason_name(reason)}};
            ledger->record(std::move(event));
          }
          if (callbacks_[id].on_request_failed) {
            callbacks_[id].on_request_failed(id, reason);
          }
        },
        "provider.request_failed");
    return id;
  }

  // The request is accepted: a transient instance holds a pool slot from
  // here to its terminal state (denied requests above never took one).
  if (request.transient) ++pool(request.region, request.gpu).live;

  // Lifecycle: PROVISIONING -> STAGING -> RUNNING.
  const StartupBreakdown& startup = records_[id].startup;
  sim_->schedule_after(
      startup.provisioning_s,
      [this, id] {
        InstanceRecord& r = mutable_record(id);
        if (!r.alive()) return;  // terminated while provisioning
        r.state = InstanceState::kStaging;
      },
      "provider.lifecycle");
  sim_->schedule_after(
      startup.provisioning_s + startup.staging_s,
      [this, id] {
        InstanceRecord& r = mutable_record(id);
        if (!r.alive()) return;
        r.state = InstanceState::kRunning;
      },
      "provider.lifecycle");
  sim_->schedule_after(startup.total(), [this, id] {
    InstanceRecord& r = mutable_record(id);
    if (!r.alive()) return;
    r.running_at = sim_->now();
    r.running_local_hour = local_hour_now(r.request.region);

    if (obs::Tracer* tracer = obs::tracer()) {
      tracer->complete(
          tracer->track("cloud"), "provider.startup", "cloud", r.requested_at,
          sim_->now(),
          {{"instance", std::to_string(id)},
           {"gpu", gpu_name(r.request.gpu)},
           {"region", region_name(r.request.region)},
           {"transient", r.request.transient ? "true" : "false"}},
          /*async=*/true);
    }
    if (obs::Registry* registry = obs::registry()) {
      registry->histogram("cloud.startup_seconds").observe(r.startup.total());
    }
    if (obs::Ledger* ledger = obs::ledger()) {
      obs::LedgerEvent event;
      event.kind = obs::LedgerEventKind::kLaunchRunning;
      event.at = sim_->now();
      event.source = "cloud";
      event.instance = static_cast<long long>(id);
      event.seconds = r.startup.total();
      event.detail = {{"gpu", gpu_name(r.request.gpu)},
                      {"region", region_name(r.request.region)}};
      ledger->record(std::move(event));
    }

    if (r.request.transient && !hazard_revocations_) {
      // Hazard draws disabled (fleet market mode): only the platform's
      // hard 24 h lifetime cap ends the instance on its own — every
      // earlier revocation must come through reclaim().
      pending_events_[id] = sim_->schedule_after(
          kMaxTransientLifetimeSeconds,
          [this, id] {
            if (!records_[id].alive()) return;
            finish(id, InstanceState::kExpired);
            if (callbacks_[id].on_revoked) callbacks_[id].on_revoked(id);
          },
          "provider.lifecycle");
    } else if (r.request.transient) {
      // Sample the revocation age from the hazard model; the 24h cap is
      // represented by a nullopt sample. During an outage tail the
      // sampled age is compressed by the storm's hazard multiplier (the
      // draw itself is unchanged, so storm-free seeds are unperturbed).
      auto age = revocation_model_->sample_revocation_age_seconds(
          r.request.region, r.request.gpu, r.running_local_hour, rng_);
      if (const double mult =
              outage_hazard_multiplier(r.request.region, r.request.gpu);
          age && mult > 1.0) {
        age = *age / mult;
      }
      const double end_age =
          age.value_or(kMaxTransientLifetimeSeconds);
      const InstanceState terminal =
          age ? InstanceState::kRevoked : InstanceState::kExpired;

      // Injected abrupt kill: the revocation arrives with no warning,
      // denying transient-TensorFlow its notification hook and forcing
      // the session down the stale-checkpoint recovery path.
      const bool abrupt = age && fault_injector_ != nullptr &&
                          fault_injector_->abrupt_kill();
      r.abrupt_kill = abrupt;

      if (!abrupt && end_age > kPreemptionNoticeSeconds) {
        pending_notices_[id] = sim_->schedule_after(
            end_age - kPreemptionNoticeSeconds,
            [this, id] {
              if (!records_[id].alive()) return;
              if (obs::Tracer* tracer = obs::tracer()) {
                tracer->instant(tracer->track("cloud"),
                                "provider.preemption_notice", "cloud",
                                sim_->now(),
                                {{"instance", std::to_string(id)}});
              }
              if (obs::Ledger* ledger = obs::ledger()) {
                obs::LedgerEvent event;
                event.kind = obs::LedgerEventKind::kPreemptionNotice;
                event.at = sim_->now();
                event.source = "cloud";
                event.instance = static_cast<long long>(id);
                event.seconds = kPreemptionNoticeSeconds;
                ledger->record(std::move(event));
              }
              if (callbacks_[id].on_preemption_notice) {
                callbacks_[id].on_preemption_notice(id);
              }
            },
            "provider.lifecycle");
      }
      pending_events_[id] = sim_->schedule_after(
          end_age,
          [this, id, terminal] {
            if (!records_[id].alive()) return;
            finish(id, terminal);
            if (callbacks_[id].on_revoked) callbacks_[id].on_revoked(id);
          },
          "provider.lifecycle");
    }

    if (callbacks_[id].on_running) callbacks_[id].on_running(id);
  }, "provider.lifecycle");

  return id;
}

void CloudProvider::terminate(InstanceId id) {
  InstanceRecord& r = mutable_record(id);
  if (!r.alive()) return;
  pending_events_[id].cancel();
  pending_notices_[id].cancel();
  finish(id, InstanceState::kTerminated);
}

void CloudProvider::reclaim(InstanceId id, const char* reason) {
  InstanceRecord& r = mutable_record(id);
  if (!r.alive()) return;
  pending_events_[id].cancel();
  pending_notices_[id].cancel();
  finish(id, InstanceState::kRevoked, reason);
  if (callbacks_[id].on_revoked) callbacks_[id].on_revoked(id);
}

void CloudProvider::finish(InstanceId id, InstanceState terminal,
                           const char* reason) {
  InstanceRecord& r = mutable_record(id);
  r.state = terminal;
  r.ended_at = sim_->now();
  // Release the pool slot. Denied requests (kFailed) never took one.
  if (r.request.transient && terminal != InstanceState::kFailed) {
    PoolState& p = pool(r.request.region, r.request.gpu);
    if (p.live > 0) --p.live;
  }
  if (terminal == InstanceState::kRevoked ||
      terminal == InstanceState::kExpired) {
    if (obs::Tracer* tracer = obs::tracer()) {
      tracer->instant(tracer->track("cloud"),
                      terminal == InstanceState::kRevoked
                          ? "provider.revoked"
                          : "provider.expired",
                      "cloud", sim_->now(),
                      {{"instance", std::to_string(id)},
                       {"gpu", gpu_name(r.request.gpu)}});
    }
    if (obs::Registry* registry = obs::registry()) {
      registry->counter("cloud.revocations_total",
                        {{"terminal", instance_state_name(terminal)}})
          .inc();
      if (r.running_at >= 0.0) {
        registry->histogram("cloud.lifetime_seconds")
            .observe(r.running_lifetime_seconds());
      }
    }
    if (obs::Ledger* ledger = obs::ledger()) {
      obs::LedgerEvent event;
      event.kind = terminal == InstanceState::kRevoked
                       ? obs::LedgerEventKind::kRevocation
                       : obs::LedgerEventKind::kExpiry;
      event.at = sim_->now();
      event.source = "cloud";
      event.instance = static_cast<long long>(id);
      event.detail = {{"abrupt", r.abrupt_kill ? "true" : "false"},
                      {"gpu", gpu_name(r.request.gpu)}};
      if (reason != nullptr) event.detail.push_back({"reason", reason});
      ledger->record(std::move(event));
    }
  }
  // A closed billing window: every second from RUNNING to the terminal
  // state is billed exactly once, here (live instances at the end of a
  // horizon-limited run get theirs from record_billing_ticks()). The
  // analyzer reconstructs the window as [at - seconds, at].
  if (r.running_at >= 0.0) {
    if (obs::Ledger* ledger = obs::ledger()) {
      obs::LedgerEvent event;
      event.kind = obs::LedgerEventKind::kBilling;
      event.at = sim_->now();
      event.source = "cloud";
      event.instance = static_cast<long long>(id);
      event.seconds = r.ended_at - r.running_at;
      event.usd = instance_cost(id);
      event.detail = {{"gpu", gpu_name(r.request.gpu)},
                      {"transient", r.request.transient ? "true" : "false"}};
      ledger->record(std::move(event));
    }
  }
  LOG_DEBUG << "instance " << id << " (" << gpu_name(r.request.gpu) << " in "
            << region_name(r.request.region) << ") -> "
            << instance_state_name(terminal);
}

void CloudProvider::record_billing_ticks() {
  obs::Ledger* ledger = obs::ledger();
  if (ledger == nullptr) return;
  for (const InstanceRecord& r : records_) {
    if (!r.alive() || r.running_at < 0.0) continue;
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kBilling;
    event.at = sim_->now();
    event.source = "cloud";
    event.instance = static_cast<long long>(r.id);
    event.seconds = sim_->now() - r.running_at;
    event.usd = instance_cost(r.id);
    event.detail = {{"gpu", gpu_name(r.request.gpu)},
                    {"live", "true"},
                    {"transient", r.request.transient ? "true" : "false"}};
    ledger->record(std::move(event));
  }
}

const InstanceRecord& CloudProvider::record(InstanceId id) const {
  if (id >= records_.size()) {
    throw std::out_of_range("CloudProvider::record: unknown instance");
  }
  return records_[id];
}

InstanceRecord& CloudProvider::mutable_record(InstanceId id) {
  if (id >= records_.size()) {
    throw std::out_of_range("CloudProvider: unknown instance");
  }
  return records_[id];
}

double CloudProvider::instance_cost(InstanceId id) const {
  const InstanceRecord& r = record(id);
  if (r.running_at < 0.0) return 0.0;
  const double end = r.ended_at >= 0.0 ? r.ended_at : sim_->now();
  const double hours = (end - r.running_at) / 3600.0;
  // The rate was locked in at request time (list price x spot
  // multiplier); with no market configured it equals the list price.
  return hours * r.price_per_hour;
}

double CloudProvider::total_cost() const {
  double sum = 0.0;
  for (const InstanceRecord& r : records_) sum += instance_cost(r.id);
  return sum;
}

PoolState& CloudProvider::pool(Region region, GpuType gpu) {
  return pools_[static_cast<int>(region)][static_cast<int>(gpu)];
}

const PoolState& CloudProvider::pool(Region region, GpuType gpu) const {
  return pools_[static_cast<int>(region)][static_cast<int>(gpu)];
}

void CloudProvider::set_pool_capacity(Region region, GpuType gpu,
                                      int capacity) {
  if (capacity < -1) {
    throw std::invalid_argument(
        "set_pool_capacity: capacity must be >= 0 (or -1 = unbounded)");
  }
  pool(region, gpu).capacity = capacity;
}

int CloudProvider::pool_capacity(Region region, GpuType gpu) const {
  return pool(region, gpu).capacity;
}

int CloudProvider::live_transient_count(Region region, GpuType gpu) const {
  return pool(region, gpu).live;
}

void CloudProvider::set_price_multiplier(Region region, GpuType gpu,
                                         double multiplier) {
  if (!(multiplier > 0.0) || !std::isfinite(multiplier)) {
    throw std::invalid_argument(
        "set_price_multiplier: multiplier must be finite and > 0");
  }
  pool(region, gpu).price_multiplier = multiplier;
}

double CloudProvider::price_multiplier(Region region, GpuType gpu) const {
  return pool(region, gpu).price_multiplier;
}

double CloudProvider::current_transient_price(Region region,
                                              GpuType gpu) const {
  return gpu_spec(gpu).transient_price * pool(region, gpu).price_multiplier;
}

void CloudProvider::export_market_gauges() const {
  obs::Registry* registry = obs::registry();
  if (registry == nullptr) return;
  for (const Region region : kAllRegions) {
    for (const GpuType gpu : kAllGpuTypes) {
      const PoolState& p = pool(region, gpu);
      if (p.capacity < 0) continue;  // unbounded pools stay silent
      const obs::LabelSet labels = {{"gpu", gpu_name(gpu)},
                                    {"region", region_name(region)}};
      registry->gauge("cloud.market.capacity", labels)
          .set(static_cast<double>(p.capacity));
      registry->gauge("cloud.market.live", labels)
          .set(static_cast<double>(p.live));
      registry->gauge("cloud.market.price_per_hour", labels)
          .set(current_transient_price(region, gpu));
    }
  }
}

}  // namespace cmdare::cloud
