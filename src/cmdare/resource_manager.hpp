// CM-DARE resource manager / controller substrate (Section II, Figure 1).
//
// TransientTrainingRun is the framework facade that ties everything
// together the way the paper's workflow describes: it (2) sets up the
// training cluster through the cloud provider, (3) starts transient-aware
// training once workers come up, (5) lets the chief checkpoint to cloud
// storage, (7-9) reacts to revocations — CM-DARE mode hands checkpointing
// to a survivor — and (10) fulfills cluster reconfigurations decided by
// the controller: a revoked worker is replaced immediately by default
// (Section V-B shows immediate requests carry no availability penalty),
// and the whole session can be restarted with more parameter servers
// (Section VI-B; TensorFlow cannot add a PS live, so the restart costs
// ~10 seconds and cumulative progress is carried across sessions).
// It also does the billing arithmetic for the cost-advisor use case.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/provider.hpp"
#include "cloud/storage.hpp"
#include "cmdare/profiler.hpp"
#include "supervise/supervise.hpp"
#include "train/cluster.hpp"
#include "train/session.hpp"

namespace cmdare::core {

/// Hourly price of one (on-demand, CPU-only) parameter server; an
/// n1-standard-4, matching the paper's PS configuration.
inline constexpr double kPsHourlyCost = 0.19;

/// Session-restart overhead when reconfiguring the cluster (Section VI-B:
/// "about 10 seconds").
inline constexpr double kSessionRestartSeconds = 10.0;

/// How the run reacts when the cloud denies instance requests (stockouts
/// and transient launch errors injected via src/faults). Launch retries
/// use capped exponential backoff with jitter; a persistent stockout
/// climbs a fallback ladder — alternate region, then alternate GPU, then
/// an on-demand server (which preemptible-capacity stockouts cannot
/// touch). A slot that exhausts its attempt budget is abandoned and the
/// run degrades to fewer workers instead of aborting.
struct ResiliencePolicy {
  /// Launch attempts per worker slot before the slot is abandoned.
  int max_launch_attempts = 10;
  /// Capped exponential backoff between launch retries.
  double backoff_base_seconds = 4.0;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 300.0;
  /// Uniform +/- jitter fraction on every backoff wait (de-synchronizes
  /// retry storms across slots).
  double backoff_jitter = 0.25;
  /// Consecutive stockouts on one slot before climbing the ladder.
  int stockouts_before_fallback = 2;
  bool allow_region_fallback = true;
  bool allow_gpu_fallback = true;
  bool allow_on_demand_fallback = true;

  friend bool operator==(const ResiliencePolicy&,
                         const ResiliencePolicy&) = default;
};

struct RunConfig {
  train::SessionConfig session;
  std::vector<train::WorkerSpec> workers;
  /// Request a replacement transient worker whenever one is revoked.
  bool auto_replace = true;
  /// How replacements are requested (immediate by default; Section V-B).
  cloud::RequestContext replacement_context =
      cloud::RequestContext::kImmediateAfterRevocation;
  /// Reaction to denied instance requests (see ResiliencePolicy).
  ResiliencePolicy resilience;
  /// Online supervision layer (heartbeat detection, adaptive
  /// checkpointing, health-scored / hedged replacement). Disabled by
  /// default: the run then behaves exactly as before, event-for-event.
  supervise::SupervisionConfig supervision;
};

/// What a run counts, each named like the ScenarioResult row that reports
/// it. Launch retries, fallbacks and abandoned slots stay zero without a
/// fault injector (the fault-free cloud never denies a request); fenced
/// workers, cancelled hedges and elastic shrinks/grows stay zero without
/// a supervisor.
struct RunCounters {
  int revocations = 0;
  int replacements = 0;
  int restarts = 0;          // session restarts with a new PS count
  int launch_retries = 0;
  int fallbacks = 0;
  int slots_abandoned = 0;
  int notices = 0;           // preemption notices received
  int abrupt_kills = 0;      // revocations that skipped the notice
  int fenced_workers = 0;    // live workers fenced after a false positive
  int hedges_cancelled = 0;  // hedge legs cancelled after losing the race
  int elastic_shrinks = 0;   // losses absorbed by deferring the slot
  int elastic_grows = 0;     // deferred slots regrown
};

class TransientTrainingRun {
 public:
  /// `store` may be null (checkpoint durations sampled, blobs not kept).
  TransientTrainingRun(cloud::CloudProvider& provider, nn::CnnModel model,
                       RunConfig config, util::Rng rng,
                       cloud::ObjectStore* store = nullptr);

  /// Requests the initial cluster. Drive the provider's simulator to make
  /// progress; on_complete fires when the cumulative step count reaches
  /// the configured max_steps.
  void start();

  /// Halts the current session and starts a fresh one with `ps_count`
  /// parameter servers. Cumulative progress is preserved; live workers
  /// rejoin after the ~10 s restart overhead. No-op if already finished.
  void restart_with_ps_count(int ps_count);

  train::TrainingSession& session() { return *session_; }
  const train::TrainingSession& session() const { return *session_; }

  /// Steps completed across all sessions of this run.
  long completed_steps() const;
  long target_steps() const { return target_steps_; }
  bool finished() const { return finished_; }
  int current_ps_count() const { return ps_count_; }

  /// Windowed cluster-speed profiler, re-attached across restarts.
  const PerformanceProfiler& profiler() const { return profiler_; }

  const RunCounters& counters() const { return counters_; }

  /// Late or duplicate provider lifecycle events that were ignored
  /// instead of aborting the run.
  int stale_events_ignored() const { return stale_events_; }

  /// Supervision layer (null when config.supervision.enabled is false).
  const supervise::Supervisor* supervisor() const { return supervisor_.get(); }
  /// Replacements whose detection was deferred to a heartbeat timeout.
  int detected_failures() const { return detected_failures_; }
  /// Slots currently parked in the deferred queue (shrinks minus grows,
  /// minus any probe in flight).
  std::size_t deferred_worker_slots() const { return deferred_slots_.size(); }
  /// Death -> replacement-worker-joined durations observed per recovery.
  const std::vector<double>& recovery_seconds() const {
    return recovery_seconds_;
  }
  double mean_recovery_seconds() const;
  /// Last interval applied by the adaptive checkpoint controller
  /// (0 = never retuned).
  long adaptive_checkpoint_interval() const { return adaptive_interval_; }

  /// Worker slots the run is still trying to keep filled (the configured
  /// count minus abandoned and elastically deferred slots) — what "full
  /// strength" means for the controller once the cloud has refused to
  /// fill a slot or the elastic policy has parked it.
  std::size_t expected_worker_count() const {
    return config_.workers.size() -
           static_cast<std::size_t>(counters_.slots_abandoned) -
           deferred_slots_.size();
  }

  /// Worker GPU-hours cost so far plus parameter-server cost.
  double cost_so_far() const;

  /// Closes the ledger's billing books for a run cut short by the sim
  /// horizon: emits the parameter-server billing event for the still-open
  /// session segment (finished runs bill it in finish()). Pair with
  /// CloudProvider::record_billing_ticks() for the instance side. Call at
  /// most once, at collection time — no-op when telemetry is disabled or
  /// the run already finished.
  void record_billing_tick();

  /// Wall-clock (simulated) duration from start() to completion; requires
  /// the run to have finished.
  double elapsed_seconds() const;

  const nn::CnnModel& model() const { return model_; }
  const RunConfig& config() const { return config_; }
  simcore::Simulator& simulator() { return provider_->simulator(); }

  std::function<void()> on_complete;

 private:
  /// Test seam: lets tests deliver fabricated late/duplicate lifecycle
  /// events straight into the private handlers (the provider itself never
  /// double-fires, so the hardening is unreachable from public API).
  friend class TransientTrainingRunTestPeer;

  struct Placement {
    train::WorkerSpec spec;                 // spec actually requested
    train::WorkerSpec original_spec;        // slot's configured spec
    cloud::RequestContext context = cloud::RequestContext::kNormal;
    std::optional<train::WorkerId> worker;  // id within the *current* session
    bool cold = false;                      // replacement (cold start)
    bool revoked = false;                   // on_revoked already handled
    bool notice_received = false;
    // Launch-retry state for this slot's current fill attempt.
    int attempt = 1;
    int consecutive_stockouts = 0;
    int ladder_stage = 0;  // 0 = original, 1 = region, 2 = gpu, 3 = on-demand
    // Supervision state. `replacement_pending` marks an abrupt kill whose
    // replacement is deferred until the heartbeat detector notices the
    // silence; `cancelled` marks a hedge leg that lost (or ceded) the
    // race; `recovering_since` carries the slot's death time so the
    // eventual replacement can report its recovery latency.
    bool replacement_pending = false;
    bool cancelled = false;
    /// Regrow probe for a deferred slot: a failure returns the slot to
    /// the deferred queue instead of entering the launch-retry chain.
    bool elastic_regrow = false;
    std::optional<cloud::InstanceId> hedge_partner;
    double recovering_since = -1.0;
    /// Instance whose death this placement replaces (recovery-incident
    /// linkage for the run ledger); carried across launch retries.
    std::optional<cloud::InstanceId> replaces;
  };

  void make_session(long remaining_steps);
  cloud::InstanceId launch_worker(
      const train::WorkerSpec& spec, cloud::RequestContext context,
      double recovering_since = -1.0,
      std::optional<cloud::InstanceId> replaces = std::nullopt);
  /// Issues the instance request described by `placement` and registers
  /// the lifecycle callbacks (shared by first launches and retries).
  cloud::InstanceId request_slot(Placement placement);
  void handle_running(cloud::InstanceId instance);
  void handle_revoked(cloud::InstanceId instance);
  void handle_request_failed(cloud::InstanceId instance,
                             cloud::RequestFailureReason reason);
  /// Climbs the fallback ladder one rung; false when exhausted.
  bool advance_fallback(Placement& placement);
  void count_stale_event(const char* event, cloud::InstanceId instance);
  /// Ledger billing event for a closed parameter-server segment of
  /// `seconds` at the current ps_count_ (no-op when telemetry is off).
  void emit_ps_billing(double seconds);
  void finish();
  /// Supervision: reaction to a heartbeat-detector verdict (deferred
  /// abrupt-kill replacement, or fencing a false positive).
  void handle_failure_detected(cloud::InstanceId instance);
  /// Requests the replacement(s) for a lost slot — one request, or a
  /// hedged pair when configured. Counts one replacement either way.
  /// `replaces` names the dead instance for ledger incident linkage.
  void launch_replacement(const train::WorkerSpec& spec,
                          double recovering_since,
                          std::optional<cloud::InstanceId> replaces);
  /// One adaptive-checkpoint tick: gathers live PlanInputs and applies
  /// the controller's decision to the session.
  void retune_checkpoint_interval();
  /// Elastic membership (circuit breaker + shrink/regrow) is live only
  /// when the supervisor exists and the switch is on.
  bool elastic_enabled() const {
    return supervisor_ != nullptr && config_.supervision.elastic.enabled;
  }
  /// Consults the elastic policy for a lost slot; on a shrink verdict
  /// parks the slot in the deferred queue (emitting the ledger event and
  /// arming the regrow loop) and returns true. False means replace.
  bool maybe_shrink(const Placement& placement, cloud::InstanceId instance,
                    const char* trigger);
  /// Schedules the next regrow sweep (idempotent, self-quiescing).
  void arm_regrow();
  /// One regrow sweep: launches a probe for the head of the deferred
  /// queue when hysteresis, breaker admission and economics all allow.
  void run_regrow();
  /// Mean of recent observed checkpoint durations, falling back to the
  /// calibrated mean before any checkpoint completed.
  double observed_checkpoint_seconds() const;

  cloud::CloudProvider* provider_;
  cloud::ObjectStore* store_;
  nn::CnnModel model_;
  RunConfig config_;
  util::Rng rng_;
  /// Dedicated stream for backoff jitter so resilience decisions never
  /// perturb the replacement-overhead draws (fault-free runs stay
  /// byte-identical to the pre-fault-layer behaviour).
  util::Rng resilience_rng_;
  /// Built only when config.supervision.enabled; draws from its own
  /// forked stream ("supervise") so enabling it never perturbs the
  /// run's other draws.
  std::unique_ptr<supervise::Supervisor> supervisor_;

  // The active session plus halted predecessors (kept alive because
  // in-flight simulator events reference them).
  std::unique_ptr<train::TrainingSession> session_;
  std::vector<std::unique_ptr<train::TrainingSession>> retired_sessions_;
  PerformanceProfiler profiler_;

  std::map<cloud::InstanceId, Placement> placements_;

  long target_steps_ = 0;
  long completed_offset_ = 0;
  int ps_count_ = 1;
  bool finished_ = false;
  double started_at_ = -1.0;
  double finished_at_ = -1.0;
  double ps_cost_accrued_ = 0.0;   // USD, for completed session segments
  double segment_started_at_ = 0.0;
  RunCounters counters_;
  int stale_events_ = 0;
  int detected_failures_ = 0;
  long adaptive_interval_ = 0;
  std::vector<double> recovery_seconds_;
  /// Original specs of slots the elastic policy declined to refill;
  /// regrow probes drain the queue front-first.
  std::vector<train::WorkerSpec> deferred_slots_;
  bool regrow_armed_ = false;
};

}  // namespace cmdare::core
