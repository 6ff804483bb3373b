// Fleet-layer configuration: the knobs of the multi-tenant market sim.
//
// One FleetConfig describes an entire tenant population (how many jobs,
// how much work each carries, how many workers it wants) plus the market
// it trades in (per-pool capacity, demand-driven pricing, the time-of-day
// supply dip) and the global scheduler policy placing the jobs. The
// scenario layer maps every field to a `fleet.*` spec key, so all of
// them are sweepable by run_scenario_campaign.
#pragma once

#include <string>
#include <vector>

namespace cmdare::fleet {

/// Global placement policy of the FleetScheduler.
enum class SchedulerPolicy {
  /// Naive baseline: the next pool (in fixed enumeration order) with
  /// room. Price- and speed-blind — what a quota-only placer does.
  kRoundRobin,
  /// Eq. 4-aware: picks the pool minimizing expected $/step — billed
  /// rate over useful step rate, inflated by the pool's observed
  /// waste ratio — and migrates jobs when another pool gets cheaper.
  kCostOptimal,
};

/// Stable text tokens ("round-robin" / "cost-optimal") for the spec codec.
const char* scheduler_policy_name(SchedulerPolicy policy);

struct FleetConfig {
  // --- tenant population ---
  int tenants = 16;
  /// Demand-intensity multiplier applied to every tenant's drawn work
  /// volume: aggregate GPU-hours demanded against the fixed supply (the
  /// sweep axis that drives endogenous revocations up). Scaling work
  /// rather than worker count keeps placement granularity constant
  /// across the sweep, so contention — not quantization — moves.
  double demand = 1.0;
  int workers_per_tenant = 2;
  /// Per-tenant work target, drawn uniformly from [min_steps, max_steps].
  long min_steps = 400;
  long max_steps = 2000;
  /// Durable progress granularity: an evicted tenant restarts from the
  /// last multiple of this (0 = no checkpoints, evictions lose all work).
  long checkpoint_interval_steps = 100;
  /// Wall-clock cost of writing one checkpoint / restoring after a move.
  double checkpoint_seconds = 10.0;
  double restore_seconds = 30.0;
  /// Deadline (from t=0) every tenant is scored against.
  double deadline_hours = 8.0;
  /// Draw each tenant's model from the canonical zoo instead of using
  /// the scenario's single model (heterogeneous $/step across GPUs).
  bool model_mix = false;

  // --- market ---
  /// Transient slots per measured (region, GPU) pool.
  int capacity_per_pool = 12;
  /// Spot multiplier = 1 + sensitivity * utilization^exponent.
  double price_sensitivity = 1.0;
  double price_exponent = 2.0;
  /// Fractional supply shrink at the local-afternoon demand peak; the
  /// provider reclaims capacity from the fleet when the dip undercuts
  /// live instances.
  double capacity_dip = 0.25;
  /// Tenant bids are drawn from [1, 1 + bid_spread]; a pool whose spot
  /// multiplier exceeds a tenant's bid prices that tenant out.
  double bid_spread = 0.5;
  double market_period_s = 60.0;

  // --- scheduler ---
  SchedulerPolicy scheduler = SchedulerPolicy::kCostOptimal;
  /// Migration cadence (0 = never); cost-optimal only.
  double migrate_period_s = 900.0;
  /// Fractional $/step improvement required before moving a job (the
  /// hysteresis that keeps migration churn bounded).
  double migrate_gain = 0.2;

  /// Keep the provider's hazard-sampled revocations on top of the
  /// market's endogenous ones (off by default: the fleet study isolates
  /// reclaim/price-out dynamics).
  bool hazard_revocations = false;

  friend bool operator==(const FleetConfig&, const FleetConfig&) = default;
};

/// Semantic checks beyond per-key ranges (min <= max, workers fit the
/// dipped pool capacity so pending tenants can always eventually place).
/// Messages are prefixed "fleet." to slot into ScenarioSpec validation.
std::vector<std::string> validate(const FleetConfig& config);

/// A tenant's work target at the config's demand intensity: the drawn
/// [min_steps, max_steps] sample scaled by `demand`, floored at 1.
long effective_steps(const FleetConfig& config, long drawn_steps);

}  // namespace cmdare::fleet
