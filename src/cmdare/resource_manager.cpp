#include "cmdare/resource_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cloud/calibration.hpp"
#include "cmdare/planner.hpp"
#include "obs/obs.hpp"
#include "train/replacement.hpp"
#include "util/logging.hpp"

namespace cmdare::core {

TransientTrainingRun::TransientTrainingRun(cloud::CloudProvider& provider,
                                           nn::CnnModel model,
                                           RunConfig config, util::Rng rng,
                                           cloud::ObjectStore* store)
    : provider_(&provider),
      store_(store),
      model_(std::move(model)),
      config_(std::move(config)),
      rng_(rng),
      resilience_rng_(rng.fork("resilience")) {
  if (config_.workers.empty()) {
    throw std::invalid_argument("TransientTrainingRun: no workers");
  }
  if (config_.session.max_steps < 1) {
    throw std::invalid_argument(
        "TransientTrainingRun: max_steps must be >= 1");
  }
  target_steps_ = config_.session.max_steps;
  ps_count_ = config_.session.ps_count;
  if (config_.supervision.elastic.enabled && !config_.supervision.enabled) {
    throw std::invalid_argument(
        "TransientTrainingRun: elastic membership requires supervision");
  }
  if (config_.supervision.enabled) {
    // fork() is const, so building the supervisor leaves every other
    // stream of this run untouched: enabling supervision perturbs no
    // existing draw.
    supervisor_ = std::make_unique<supervise::Supervisor>(
        provider, config_.supervision, rng_.fork("supervise"));
    supervisor_->on_failure_detected = [this](cloud::InstanceId id) {
      handle_failure_detected(id);
    };
    supervisor_->on_retune = [this] { retune_checkpoint_interval(); };
    if (config_.supervision.elastic.enabled) {
      // Every breaker state change is worth a ledger line: the analyzer
      // pairs open/close transitions with elastic shrink/grow events to
      // attribute degraded-capacity time.
      supervisor_->breaker().on_transition =
          [this](cloud::Region region, cloud::GpuType gpu,
                 supervise::BreakerState from, supervise::BreakerState to,
                 double at) {
            if (obs::Registry* registry = obs::registry()) {
              registry
                  ->counter("supervise.breaker_transitions_total",
                            {{"to", supervise::breaker_state_name(to)}})
                  .inc();
            }
            if (obs::Ledger* ledger = obs::ledger()) {
              obs::LedgerEvent event;
              event.kind = obs::LedgerEventKind::kBreakerTransition;
              event.at = at;
              event.source = "run";
              event.detail = {{"region", cloud::region_name(region)},
                              {"gpu", cloud::gpu_name(gpu)},
                              {"from", supervise::breaker_state_name(from)},
                              {"to", supervise::breaker_state_name(to)}};
              ledger->record(std::move(event));
            }
          };
    }
  }
  make_session(target_steps_);
}

void TransientTrainingRun::make_session(long remaining_steps) {
  train::SessionConfig session_config = config_.session;
  session_config.ps_count = ps_count_;
  session_config.max_steps = remaining_steps;
  // Carry the last adaptive retune across session restarts.
  if (adaptive_interval_ > 0) {
    session_config.checkpoint_interval_steps = adaptive_interval_;
  }
  session_ = std::make_unique<train::TrainingSession>(
      provider_->simulator(), model_, session_config,
      rng_.fork("session-" + std::to_string(counters_.restarts)), store_);
  segment_started_at_ = provider_->simulator().now();
  session_->on_complete = [this] { finish(); };
  profiler_.attach(*session_);
}

void TransientTrainingRun::emit_ps_billing(double seconds) {
  if (seconds <= 0.0) return;
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kBilling;
    event.at = provider_->simulator().now();
    event.source = "run";
    event.seconds = seconds;
    event.usd = ps_count_ * kPsHourlyCost * seconds / 3600.0;
    event.detail = {{"component", "ps"},
                    {"ps_count", std::to_string(ps_count_)}};
    ledger->record(std::move(event));
  }
}

void TransientTrainingRun::finish() {
  finished_ = true;
  if (supervisor_) supervisor_->halt();
  finished_at_ = provider_->simulator().now();
  ps_cost_accrued_ += ps_count_ * kPsHourlyCost *
                      (finished_at_ - segment_started_at_) / 3600.0;
  emit_ps_billing(finished_at_ - segment_started_at_);
  // Release every still-alive instance of this run.
  for (const auto& [instance, placement] : placements_) {
    (void)placement;
    if (provider_->record(instance).alive()) provider_->terminate(instance);
  }
  if (on_complete) on_complete();
}

void TransientTrainingRun::start() {
  if (started_at_ >= 0.0) {
    throw std::logic_error("TransientTrainingRun: already started");
  }
  started_at_ = provider_->simulator().now();
  segment_started_at_ = started_at_;
  for (const train::WorkerSpec& spec : config_.workers) {
    launch_worker(spec, cloud::RequestContext::kNormal);
  }
}

void TransientTrainingRun::restart_with_ps_count(int ps_count) {
  if (ps_count < 1) {
    throw std::invalid_argument("restart_with_ps_count: ps_count must be >= 1");
  }
  if (finished_) return;

  // Stop the current session; its events become no-ops.
  session_->halt();
  completed_offset_ += session_->global_step();
  ps_cost_accrued_ +=
      ps_count_ * kPsHourlyCost *
      (provider_->simulator().now() - segment_started_at_) / 3600.0;
  emit_ps_billing(provider_->simulator().now() - segment_started_at_);
  retired_sessions_.push_back(std::move(session_));

  ps_count_ = ps_count;
  ++counters_.restarts;
  const long remaining = std::max<long>(1, target_steps_ - completed_offset_);
  make_session(remaining);
  LOG_INFO << "session restart #" << counters_.restarts << " with " << ps_count
           << " parameter servers at t=" << provider_->simulator().now();

  // Live workers rejoin the new session after the restart overhead.
  for (auto& [instance, placement] : placements_) {
    if (!placement.worker) continue;  // still booting; joins on RUNNING
    const auto& record = provider_->record(instance);
    if (!record.alive() || record.state != cloud::InstanceState::kRunning) {
      placement.worker.reset();
      continue;
    }
    placement.worker =
        session_->add_worker(placement.spec, kSessionRestartSeconds);
    if (obs::Ledger* ledger = obs::ledger()) {
      // Re-bind the slot in the new session's worker-id space; the
      // analyzer resets its worker->instance map at session_restart.
      obs::LedgerEvent event;
      event.kind = obs::LedgerEventKind::kAssign;
      event.at = provider_->simulator().now();
      event.source = "run";
      event.instance = static_cast<long long>(instance);
      event.worker = static_cast<long long>(*placement.worker);
      event.seconds = kSessionRestartSeconds;
      event.detail = {{"restart", "true"}};
      ledger->record(std::move(event));
    }
  }
}

long TransientTrainingRun::completed_steps() const {
  return completed_offset_ + session_->global_step();
}

cloud::InstanceId TransientTrainingRun::launch_worker(
    const train::WorkerSpec& spec, cloud::RequestContext context,
    double recovering_since, std::optional<cloud::InstanceId> replaces) {
  Placement placement;
  placement.spec = spec;
  placement.original_spec = spec;
  placement.context = context;
  placement.cold = context != cloud::RequestContext::kNormal;
  placement.recovering_since = recovering_since;
  placement.replaces = replaces;
  return request_slot(std::move(placement));
}

cloud::InstanceId TransientTrainingRun::request_slot(Placement placement) {
  cloud::InstanceRequest request;
  request.gpu = placement.spec.gpu;
  request.region = placement.spec.region;
  request.transient = placement.spec.transient;
  request.context = placement.context;

  cloud::InstanceCallbacks callbacks;
  callbacks.on_running = [this](cloud::InstanceId id) { handle_running(id); };
  callbacks.on_revoked = [this](cloud::InstanceId id) { handle_revoked(id); };
  // The preemption notice is transient-TensorFlow's hook to tell the
  // parameter server / controller about the upcoming revocation. Abrupt
  // kills (injected) never fire it.
  callbacks.on_preemption_notice = [this](cloud::InstanceId id) {
    ++counters_.notices;
    auto it = placements_.find(id);
    if (it != placements_.end()) it->second.notice_received = true;
    LOG_DEBUG << "preemption notice for instance " << id << " at t="
              << provider_->simulator().now();
  };
  callbacks.on_request_failed = [this](cloud::InstanceId id,
                                       cloud::RequestFailureReason reason) {
    handle_request_failed(id, reason);
  };

  const cloud::InstanceId id =
      provider_->request_instance(request, std::move(callbacks));
  placements_.emplace(id, std::move(placement));
  return id;
}

void TransientTrainingRun::count_stale_event(const char* event,
                                             cloud::InstanceId instance) {
  ++stale_events_;
  LOG_WARN << "ignoring " << event << " for instance " << instance
           << " (late or duplicate lifecycle event)";
  if (obs::Registry* registry = obs::registry()) {
    registry->counter("resilience.stale_events_total", {{"event", event}})
        .inc();
  }
}

void TransientTrainingRun::handle_running(cloud::InstanceId instance) {
  if (finished_) {
    provider_->terminate(instance);
    return;
  }
  auto it = placements_.find(instance);
  if (it == placements_.end()) {
    // A lifecycle event for an instance this run never placed (or whose
    // placement was dropped) must not abort the run — log and move on.
    count_stale_event("running", instance);
    return;
  }
  Placement& placement = it->second;
  if (placement.worker || placement.revoked || placement.cancelled) {
    count_stale_event("running", instance);
    return;
  }
  // Every fresh VM pays the cold-start environment setup (initial workers
  // included: they also install the framework and download their shard).
  const double join_delay =
      train::sample_cold_replacement_seconds(model_, rng_);
  // Vanilla TF (Section V-E): a replacement claims the revoked chief's IP
  // when checkpoint duty is orphaned, and the session rolls the cluster
  // back to the newest restorable checkpoint on the claim. CM-DARE hands
  // checkpoint duty to a survivor instead, so the flag stays false there.
  const bool reuse_chief_ip =
      config_.session.mode == train::FaultToleranceMode::kVanillaTf &&
      placement.replaces.has_value() && !session_->checkpoint_owner();
  placement.worker =
      session_->add_worker(placement.spec, join_delay, reuse_chief_ip);
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kAssign;
    event.at = provider_->simulator().now();
    event.source = "run";
    event.instance = static_cast<long long>(instance);
    event.worker = static_cast<long long>(*placement.worker);
    event.seconds = join_delay;
    if (placement.replaces) {
      event.detail = {{"replaces", std::to_string(*placement.replaces)}};
    }
    ledger->record(std::move(event));
  }
  if (!supervisor_) return;

  supervisor_->watch_instance(instance);
  if (elastic_enabled()) {
    // A successful launch closes (or keeps closed) the pool's breaker;
    // a half-open probe success is exactly this call.
    supervisor_->breaker().record_success(placement.spec.region,
                                          placement.spec.gpu,
                                          provider_->simulator().now());
    if (placement.elastic_regrow) {
      placement.elastic_regrow = false;
      ++counters_.elastic_grows;
      supervisor_->elastic().note_change(provider_->simulator().now());
      if (obs::Registry* registry = obs::registry()) {
        registry->counter("supervise.elastic.grows_total").inc();
        registry->gauge("supervise.elastic.deferred_slots")
            .set(static_cast<double>(deferred_slots_.size()));
      }
      if (obs::Ledger* ledger = obs::ledger()) {
        obs::LedgerEvent event;
        event.kind = obs::LedgerEventKind::kElasticGrow;
        event.at = provider_->simulator().now();
        event.source = "run";
        event.instance = static_cast<long long>(instance);
        event.worker = static_cast<long long>(*placement.worker);
        event.detail = {
            {"region", cloud::region_name(placement.spec.region)},
            {"gpu", cloud::gpu_name(placement.spec.gpu)},
            {"deficit", std::to_string(deferred_slots_.size())}};
        ledger->record(std::move(event));
      }
      // More slots may be parked behind this probe.
      arm_regrow();
    }
  }
  if (placement.recovering_since >= 0.0) {
    // Recovery latency: slot death (or fencing) to the replacement
    // worker actually rejoining the session.
    const double recovery = provider_->simulator().now() + join_delay -
                            placement.recovering_since;
    recovery_seconds_.push_back(recovery);
    if (obs::Registry* registry = obs::registry()) {
      registry->histogram("supervise.recovery_seconds").observe(recovery);
    }
    if (obs::Ledger* ledger = obs::ledger()) {
      // Emitted when the replacement reaches RUNNING; the slot rejoins
      // the session at recovering_since + seconds (i.e. now + join
      // delay), which is what `seconds` measures end to end.
      obs::LedgerEvent event;
      event.kind = obs::LedgerEventKind::kCatchupComplete;
      event.at = provider_->simulator().now();
      event.source = "run";
      event.instance = static_cast<long long>(instance);
      event.worker = static_cast<long long>(*placement.worker);
      event.seconds = recovery;
      if (placement.replaces) {
        event.detail = {{"replaces", std::to_string(*placement.replaces)}};
      }
      ledger->record(std::move(event));
    }
    placement.recovering_since = -1.0;
  }
  if (placement.hedge_partner) {
    // This leg won the race: cancel the loser (terminate is safe in any
    // pre-terminal state and cancels its pending provider events). Both
    // legs keep whatever bill they accrued.
    const cloud::InstanceId partner_id = *placement.hedge_partner;
    placement.hedge_partner.reset();
    auto partner_it = placements_.find(partner_id);
    if (partner_it != placements_.end()) {
      Placement& partner = partner_it->second;
      partner.hedge_partner.reset();
      if (!partner.worker && !partner.revoked && !partner.cancelled) {
        partner.cancelled = true;
        ++counters_.hedges_cancelled;
        if (provider_->record(partner_id).alive()) {
          provider_->terminate(partner_id);
        }
        if (obs::Registry* registry = obs::registry()) {
          registry->counter("supervise.hedge_cancels_total").inc();
        }
      }
    }
  }
}

void TransientTrainingRun::handle_revoked(cloud::InstanceId instance) {
  auto it = placements_.find(instance);
  if (it == placements_.end() || finished_) {
    count_stale_event("revoked", instance);
    return;
  }
  Placement& placement = it->second;
  if (placement.revoked || placement.cancelled) {
    count_stale_event("revoked", instance);
    return;
  }
  placement.revoked = true;
  ++counters_.revocations;
  const bool abrupt =
      !placement.notice_received && provider_->record(instance).abrupt_kill;
  if (abrupt) {
    // Notice-less kill: the controller learns about the loss only now,
    // and any in-flight chief work dies with a stale checkpoint.
    ++counters_.abrupt_kills;
    if (obs::Registry* registry = obs::registry()) {
      registry->counter("resilience.abrupt_kills_total").inc();
    }
  }
  if (supervisor_ && abrupt) {
    // Supervised run: nobody tells the control plane about a notice-less
    // kill. The dead worker stops contributing (its updates cease) but
    // the slot stays unfilled — dragging cluster speed — until the
    // heartbeat detector flags the silence; handle_failure_detected then
    // launches the replacement, so detection latency is a measured part
    // of every recovery.
    if (placement.worker) session_->revoke_worker(*placement.worker);
    placement.replacement_pending = true;
    placement.recovering_since = provider_->simulator().now();
    return;
  }
  if (supervisor_) {
    // Noticed revocation (or 24 h expiry): a graceful end as far as the
    // detector is concerned — forgetting the instance here is what keeps
    // a late heartbeat-timeout verdict from double-replacing the slot.
    supervisor_->forget_instance(instance);
    if (provider_->record(instance).state == cloud::InstanceState::kRevoked) {
      supervisor_->record_failure_event(placement.spec.region,
                                        placement.spec.gpu,
                                        supervise::FailureKind::kRevocation);
    }
  }
  if (placement.worker) {
    session_->revoke_worker(*placement.worker);
  }
  if (config_.auto_replace && !finished_) {
    if (supervisor_) {
      if (maybe_shrink(placement, instance, "revocation")) return;
      launch_replacement(placement.spec, provider_->simulator().now(),
                         instance);
    } else {
      ++counters_.replacements;
      launch_worker(placement.spec, config_.replacement_context,
                    /*recovering_since=*/-1.0, instance);
    }
  }
}

void TransientTrainingRun::handle_failure_detected(
    cloud::InstanceId instance) {
  if (finished_) return;
  auto it = placements_.find(instance);
  if (it == placements_.end()) {
    count_stale_event("failure_detected", instance);
    return;
  }
  Placement& placement = it->second;
  if (placement.cancelled) {
    count_stale_event("failure_detected", instance);
    return;
  }
  if (placement.revoked) {
    if (!placement.replacement_pending) {
      // The revocation was noticed (or a duplicate verdict arrived) and
      // the slot already replaced — replacing again would double-fill it.
      count_stale_event("failure_detected", instance);
      return;
    }
    // Deferred abrupt-kill replacement: the detector finally noticed.
    placement.replacement_pending = false;
    ++detected_failures_;
    supervisor_->record_failure_event(placement.spec.region,
                                      placement.spec.gpu,
                                      supervise::FailureKind::kRevocation);
    const double recovering_since = placement.recovering_since;
    placement.recovering_since = -1.0;
    if (config_.auto_replace) {
      if (maybe_shrink(placement, instance, "detected_kill")) return;
      launch_replacement(placement.spec, recovering_since, instance);
    }
    return;
  }
  // Live instance flagged: a false positive. Fence it — terminate cancels
  // every pending provider event, including the real future revocation —
  // so the slot cannot double-replace later, then refill.
  ++detected_failures_;
  ++counters_.fenced_workers;
  LOG_WARN << "fencing live instance " << instance
           << " after false-positive detection";
  if (obs::Registry* registry = obs::registry()) {
    registry->counter("supervise.fenced_workers_total").inc();
  }
  const double fenced_at = provider_->simulator().now();
  if (provider_->record(instance).alive()) provider_->terminate(instance);
  placement.revoked = true;
  if (placement.worker) session_->revoke_worker(*placement.worker);
  if (config_.auto_replace) {
    launch_replacement(placement.spec, fenced_at, instance);
  }
}

void TransientTrainingRun::launch_replacement(
    const train::WorkerSpec& spec, double recovering_since,
    std::optional<cloud::InstanceId> replaces) {
  ++counters_.replacements;
  const cloud::InstanceId first = launch_worker(
      spec, config_.replacement_context, recovering_since, replaces);
  if (supervisor_ && config_.supervision.hedged_replacement) {
    // Hedge: a second identical request races the first; whichever
    // reaches RUNNING first keeps the slot and cancels the other.
    const cloud::InstanceId second = launch_worker(
        spec, config_.replacement_context, recovering_since, replaces);
    placements_.at(first).hedge_partner = second;
    placements_.at(second).hedge_partner = first;
    if (obs::Registry* registry = obs::registry()) {
      registry->counter("supervise.hedged_launches_total").inc();
    }
  }
}

bool TransientTrainingRun::maybe_shrink(const Placement& placement,
                                        cloud::InstanceId instance,
                                        const char* trigger) {
  if (!elastic_enabled() || finished_) return false;
  const double now = provider_->simulator().now();
  const train::WorkerSpec& spec = placement.spec;
  // The lost slot still counts in expected_worker_count() until it is
  // deferred, so the cluster that remains without it is one smaller.
  const int live = static_cast<int>(expected_worker_count()) - 1;
  const bool breaker_allows =
      supervisor_->breaker().state(spec.region, spec.gpu, now) !=
      supervise::BreakerState::kOpen;
  const double hazard = supervisor_->estimator().rate_per_hour(
      spec.region, spec.gpu, now / 3600.0);
  const double overhead =
      provider_->startup_model().mean_stages(spec.gpu, spec.transient).total() +
      cloud::cold_replacement_seconds(model_);
  // latest_speed() is empty before the first profiler window closes; the
  // negative sentinel disables the deadline-urgency override.
  double remaining_work_s = -1.0;
  if (const auto speed = profiler_.latest_speed(); speed && *speed > 0.0) {
    remaining_work_s =
        static_cast<double>(std::max<long>(0, target_steps_ - completed_steps())) /
        *speed;
  }
  const supervise::ElasticDecision decision =
      supervisor_->elastic().on_worker_lost(breaker_allows, hazard, overhead,
                                            live, now, remaining_work_s);
  if (decision.replace) return false;

  ++counters_.elastic_shrinks;
  deferred_slots_.push_back(placement.original_spec);
  supervisor_->elastic().note_change(now);
  LOG_INFO << "elastic shrink (" << decision.reason << ", " << trigger
           << "): slot deferred, cluster degrades to "
           << expected_worker_count() << " workers";
  if (obs::Registry* registry = obs::registry()) {
    registry
        ->counter("supervise.elastic.shrinks_total",
                  {{"reason", decision.reason}})
        .inc();
    registry->gauge("supervise.elastic.deferred_slots")
        .set(static_cast<double>(deferred_slots_.size()));
  }
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kElasticShrink;
    event.at = now;
    event.source = "run";
    event.instance = static_cast<long long>(instance);
    event.detail = {{"reason", decision.reason},
                    {"trigger", trigger},
                    {"region", cloud::region_name(spec.region)},
                    {"gpu", cloud::gpu_name(spec.gpu)},
                    {"deficit", std::to_string(deferred_slots_.size())}};
    ledger->record(std::move(event));
  }
  arm_regrow();
  return true;
}

void TransientTrainingRun::arm_regrow() {
  if (regrow_armed_ || finished_ || deferred_slots_.empty()) return;
  regrow_armed_ = true;
  const double period =
      std::max(1.0, config_.supervision.elastic.grow_hysteresis_s);
  provider_->simulator().schedule_after(
      period, [this] { run_regrow(); }, "elastic.regrow");
}

void TransientTrainingRun::run_regrow() {
  regrow_armed_ = false;
  if (finished_ || deferred_slots_.empty()) return;
  const double now = provider_->simulator().now();
  supervise::ElasticPolicy& policy = supervisor_->elastic();
  const train::WorkerSpec spec = deferred_slots_.front();
  const double hazard = supervisor_->estimator().rate_per_hour(
      spec.region, spec.gpu, now / 3600.0);
  const double overhead =
      provider_->startup_model().mean_stages(spec.gpu, spec.transient).total() +
      cloud::cold_replacement_seconds(model_);
  if (policy.may_grow(now) && policy.regrow_economical(hazard, overhead) &&
      supervisor_->breaker().allow_request(spec.region, spec.gpu, now)) {
    // Probe: one deferred slot relaunched through the breaker's
    // half-open window (a closed breaker admits it directly). Success
    // lands in handle_running, failure in handle_request_failed.
    deferred_slots_.erase(deferred_slots_.begin());
    policy.note_change(now);
    if (obs::Registry* registry = obs::registry()) {
      registry->counter("supervise.elastic.grow_attempts_total").inc();
    }
    const cloud::InstanceId id =
        launch_worker(spec, config_.replacement_context);
    placements_.at(id).elastic_regrow = true;
  }
  arm_regrow();
}

bool TransientTrainingRun::advance_fallback(Placement& placement) {
  const ResiliencePolicy& policy = config_.resilience;
  const train::WorkerSpec& original = placement.original_spec;
  // With health scoring enabled the ladder prefers the candidate with the
  // lowest decayed penalty; the strict `<` keeps the original first-match
  // order whenever scores tie (in particular when all are zero, which is
  // exactly the unsupervised behaviour).
  const bool scored = supervisor_ != nullptr &&
                      config_.supervision.score_replacement;
  while (placement.ladder_stage < 3) {
    ++placement.ladder_stage;
    if (placement.ladder_stage == 1 && policy.allow_region_fallback) {
      // Same GPU in another region that offers it transiently.
      std::optional<cloud::Region> best;
      double best_score = 0.0;
      for (const cloud::Region region : cloud::kAllRegions) {
        if (region == original.region) continue;
        if (!cloud::gpu_offered_in_region(region, original.gpu)) continue;
        const double score =
            scored ? supervisor_->penalty_score(region, original.gpu) : 0.0;
        if (!best || score < best_score) {
          best = region;
          best_score = score;
        }
      }
      if (best) {
        placement.spec = original;
        placement.spec.region = *best;
        return true;
      }
    } else if (placement.ladder_stage == 2 && policy.allow_gpu_fallback) {
      // Another GPU type in the slot's configured region.
      std::optional<cloud::GpuType> best;
      double best_score = 0.0;
      for (const cloud::GpuType gpu : cloud::kAllGpuTypes) {
        if (gpu == original.gpu) continue;
        if (!cloud::gpu_offered_in_region(original.region, gpu)) continue;
        const double score =
            scored ? supervisor_->penalty_score(original.region, gpu) : 0.0;
        if (!best || score < best_score) {
          best = gpu;
          best_score = score;
        }
      }
      if (best) {
        placement.spec = original;
        placement.spec.gpu = *best;
        return true;
      }
    } else if (placement.ladder_stage == 3 &&
               policy.allow_on_demand_fallback) {
      // Last rung: an on-demand server — costs more, but preemptible
      // capacity stockouts cannot touch it.
      placement.spec = original;
      placement.spec.transient = false;
      return true;
    }
  }
  return false;
}

void TransientTrainingRun::handle_request_failed(
    cloud::InstanceId instance, cloud::RequestFailureReason reason) {
  auto it = placements_.find(instance);
  if (it == placements_.end()) {
    count_stale_event("request_failed", instance);
    return;
  }
  if (finished_) return;
  if (it->second.cancelled) {
    // A hedge leg cancelled (or ceded) while its failure response was in
    // flight: the slot is someone else's problem now.
    return;
  }
  if (supervisor_) {
    supervisor_->record_failure_event(
        it->second.spec.region, it->second.spec.gpu,
        reason == cloud::RequestFailureReason::kStockout
            ? supervise::FailureKind::kStockout
            : supervise::FailureKind::kLaunchError);
  }
  if (elastic_enabled()) {
    supervisor_->breaker().record_failure(it->second.spec.region,
                                          it->second.spec.gpu,
                                          provider_->simulator().now());
    if (it->second.elastic_regrow) {
      // Failed regrow probe: the breaker just re-opened with a grown
      // backoff. The slot goes back to the deferred queue and waits for
      // the next probe window instead of entering the retry chain.
      deferred_slots_.push_back(it->second.original_spec);
      if (obs::Registry* registry = obs::registry()) {
        registry->counter("supervise.elastic.probe_failures_total").inc();
        registry->gauge("supervise.elastic.deferred_slots")
            .set(static_cast<double>(deferred_slots_.size()));
      }
      arm_regrow();
      return;
    }
  }
  const ResiliencePolicy& policy = config_.resilience;
  // The failed placement stays in the map (its record is terminal); the
  // slot's retry state rides along into the next request.
  Placement retry = it->second;
  retry.worker.reset();
  retry.revoked = false;
  retry.notice_received = false;
  if (retry.hedge_partner) {
    const cloud::InstanceId partner_id = *retry.hedge_partner;
    auto partner_it = placements_.find(partner_id);
    Placement* partner =
        partner_it != placements_.end() ? &partner_it->second : nullptr;
    const bool partner_viable =
        partner != nullptr && !partner->cancelled && !partner->revoked &&
        (partner->worker.has_value() || provider_->record(partner_id).alive());
    if (partner_viable) {
      // The other leg of the hedge is still in the race: let it carry the
      // slot instead of retrying this one (two independent retry chains
      // would eventually fill the slot twice).
      it->second.cancelled = true;
      return;
    }
    // Both legs failed: this leg retries alone, unhedged; the partner's
    // own failure response must not start a second chain.
    if (partner != nullptr) {
      partner->cancelled = true;
      partner->hedge_partner.reset();
    }
    it->second.hedge_partner.reset();
    retry.hedge_partner.reset();
  }

  if (reason == cloud::RequestFailureReason::kStockout) {
    ++retry.consecutive_stockouts;
    if (retry.consecutive_stockouts >= policy.stockouts_before_fallback &&
        advance_fallback(retry)) {
      retry.consecutive_stockouts = 0;
      ++counters_.fallbacks;
      const char* stage = retry.ladder_stage == 1   ? "region"
                          : retry.ladder_stage == 2 ? "gpu"
                                                    : "on_demand";
      LOG_INFO << "stockout persists for instance " << instance
               << ", falling back to " << stage;
      if (obs::Registry* registry = obs::registry()) {
        registry->counter("resilience.fallbacks_total", {{"kind", stage}})
            .inc();
      }
      if (obs::Ledger* ledger = obs::ledger()) {
        obs::LedgerEvent event;
        event.kind = obs::LedgerEventKind::kFallback;
        event.at = provider_->simulator().now();
        event.source = "run";
        event.instance = static_cast<long long>(instance);
        event.detail = {{"stage", stage}};
        ledger->record(std::move(event));
      }
    }
  } else {
    retry.consecutive_stockouts = 0;
  }

  // Elastic alternative to grinding the retry chain into a struck pool:
  // once the breaker opens (or replacement turns uneconomical), park the
  // slot instead of burning attempts toward permanent abandonment.
  if (reason == cloud::RequestFailureReason::kStockout &&
      maybe_shrink(retry, instance, "stockout")) {
    return;
  }

  if (retry.attempt >= policy.max_launch_attempts) {
    ++counters_.slots_abandoned;
    LOG_WARN << "worker slot abandoned after " << retry.attempt
             << " launch attempts (last failure: "
             << cloud::request_failure_reason_name(reason)
             << ") — run degrades to " << expected_worker_count()
             << " workers";
    if (obs::Registry* registry = obs::registry()) {
      registry->counter("resilience.slots_abandoned_total").inc();
    }
    return;
  }
  ++retry.attempt;
  ++counters_.launch_retries;

  // Capped exponential backoff with jitter before the next attempt.
  double delay = policy.backoff_base_seconds *
                 std::pow(policy.backoff_multiplier, retry.attempt - 2);
  delay = std::min(delay, policy.backoff_max_seconds);
  if (policy.backoff_jitter > 0.0) {
    delay *= 1.0 +
             policy.backoff_jitter * (2.0 * resilience_rng_.uniform() - 1.0);
  }
  delay = std::max(delay, 0.0);

  const simcore::SimTime failed_at = provider_->simulator().now();
  if (obs::Registry* registry = obs::registry()) {
    registry->counter("resilience.retries_total", {{"kind", "launch"}}).inc();
    registry->histogram("resilience.backoff_seconds").observe(delay);
  }
  provider_->simulator().schedule_after(
      delay,
      [this, retry = std::move(retry), failed_at] {
        if (finished_) return;
        if (obs::Tracer* tracer = obs::tracer()) {
          tracer->complete(tracer->track("resilience"), "resilience.backoff",
                           "cmdare", failed_at, provider_->simulator().now(),
                           {{"attempt", std::to_string(retry.attempt)}},
                           /*async=*/true);
        }
        request_slot(retry);
      },
      "resilience.retry");
}

double TransientTrainingRun::observed_checkpoint_seconds() const {
  // Mean of the most recent (up to) eight completed checkpoints of the
  // current session; the calibrated mean stands in until one completes.
  const auto& checkpoints = session_->trace().checkpoints();
  double sum = 0.0;
  int count = 0;
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend() && count < 8;
       ++it, ++count) {
    sum += it->duration();
  }
  if (count == 0) {
    return cloud::mean_checkpoint_seconds(model_.parameter_bytes());
  }
  return sum / count;
}

void TransientTrainingRun::retune_checkpoint_interval() {
  if (finished_ || supervisor_ == nullptr) return;
  supervise::PlanInputs inputs;
  inputs.remaining_steps = static_cast<double>(
      std::max<long>(0, target_steps_ - completed_steps()));
  // latest_speed() is empty until the first profiler window closes; the
  // controller rejects the negative sentinel and skips the round.
  inputs.cluster_speed = profiler_.latest_speed().value_or(-1.0);
  inputs.checkpoint_seconds = observed_checkpoint_seconds();
  inputs.revocations_per_hour = supervisor_->watched_hazard_rate_per_hour();
  inputs.provision_seconds =
      provider_->startup_model()
          .mean_stages(config_.workers.front().gpu, /*transient=*/true)
          .total();
  inputs.replacement_seconds = cloud::cold_replacement_seconds(model_);

  const long current = adaptive_interval_ > 0
                           ? adaptive_interval_
                           : config_.session.checkpoint_interval_steps;
  const long min_interval = config_.supervision.checkpoint.min_interval_steps;
  const std::optional<long> planned = supervisor_->controller().decide(
      inputs, current, [min_interval](const supervise::PlanInputs& in) {
        CheckpointPlanParams params;
        params.total_steps = in.remaining_steps;
        params.cluster_speed = in.cluster_speed;
        params.checkpoint_seconds = in.checkpoint_seconds;
        params.chief_revocations_per_hour = in.revocations_per_hour;
        params.provision_seconds = in.provision_seconds;
        params.replacement_seconds = in.replacement_seconds;
        return plan_checkpoint_interval(params, min_interval).interval_steps;
      });
  if (!planned) return;
  adaptive_interval_ = *planned;
  session_->set_checkpoint_interval(*planned);
  LOG_INFO << "adaptive checkpoint retune: interval -> " << *planned
           << " steps (hazard " << inputs.revocations_per_hour
           << "/h, speed " << inputs.cluster_speed << " steps/s)";
  if (obs::Registry* registry = obs::registry()) {
    registry->counter("supervise.retunes_total").inc();
    registry->gauge("supervise.checkpoint_interval_steps")
        .set(static_cast<double>(*planned));
  }
  if (obs::Tracer* tracer = obs::tracer()) {
    tracer->instant(tracer->track("supervise"), "supervise.retune",
                    "supervise", provider_->simulator().now(),
                    {{"interval", std::to_string(*planned)}});
  }
}

double TransientTrainingRun::mean_recovery_seconds() const {
  if (recovery_seconds_.empty()) return 0.0;
  double sum = 0.0;
  for (const double r : recovery_seconds_) sum += r;
  return sum / static_cast<double>(recovery_seconds_.size());
}

double TransientTrainingRun::cost_so_far() const {
  double cost = ps_cost_accrued_;
  for (const auto& [instance, placement] : placements_) {
    (void)placement;
    cost += provider_->instance_cost(instance);
  }
  if (!finished_ && started_at_ >= 0.0) {
    cost += ps_count_ * kPsHourlyCost *
            (provider_->simulator().now() - segment_started_at_) / 3600.0;
  }
  return cost;
}

void TransientTrainingRun::record_billing_tick() {
  if (finished_ || started_at_ < 0.0) return;
  emit_ps_billing(provider_->simulator().now() - segment_started_at_);
}

double TransientTrainingRun::elapsed_seconds() const {
  if (started_at_ < 0.0 || finished_at_ < 0.0) {
    throw std::logic_error("TransientTrainingRun: run not finished");
  }
  return finished_at_ - started_at_;
}

}  // namespace cmdare::core
