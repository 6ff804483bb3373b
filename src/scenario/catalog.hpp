// Named Monte-Carlo campaigns: the paper's measurement studies as
// ScenarioSweep entries over one engine.
//
// Each entry pairs a base ScenarioSpec and its sweep axes with the
// replica function that realizes one independent sample of the study —
// the Figure 8 / Table V lifetime census, the launch-placement grid
// behind the Section V-C ablation, the cluster training-speed sweeps of
// Tables I/III, the fault-rate degradation curves, and the supervision,
// fleet, storm and checkpoint studies. Every replica reads its cell from
// the cell's spec (pool, launch hour, job length, step budget), so a
// campaign is fully described by spec keys. The `cmdare_campaign` CLI
// example runs catalog entries by name; bench_fig8 and
// bench_ablation_launch build their statistics on the same replica
// functions through the parallel engine.
#pragma once

#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::scenario {

/// A catalog entry: a base ScenarioSpec plus set_field axes, and the
/// replica that turns one cell into observations.
struct NamedScenarioSweep {
  std::string name;
  std::string description;
  ScenarioSweep sweep;
  ScenarioReplicaFn replica;  // empty = harness_replica
};

/// The campaign catalog (run via run_scenario_campaign). Sweeps carry
/// sensible defaults (replica counts, seeds); callers may override
/// seed/replicas/jobs before running.
const std::vector<NamedScenarioSweep>& named_sweeps();

/// Catalog lookup; throws std::invalid_argument for unknown names.
const NamedScenarioSweep& sweep_by_name(const std::string& name);

/// `lifetime`: samples 50 transient-server lifetimes for the cell's pool
/// (its first worker group) launched at 9 AM local time, Fig. 8's
/// convention; observations: "lifetime_h" (24 h-capped) and "revoked"
/// (0/1). Pools the paper did not measure report nothing.
exp::ReplicaResult lifetime_replica(const ScenarioCell& cell, int replica,
                                    util::Rng& rng, obs::Telemetry* telemetry);

/// `launch`: samples 50 revocation outcomes for a job of `horizon_hours`
/// launched on the cell's pool at `utc_start_hour` (the pool's local
/// hour follows from its region); observation: "revoked_in_job" (0/1)
/// per sample.
exp::ReplicaResult launch_replica(const ScenarioCell& cell, int replica,
                                  util::Rng& rng, obs::Telemetry* telemetry);

/// `speed`: runs one training session of the cell's spec, discarding
/// the first min(100, max_steps / 4) steps as warm-up; observations:
/// "steps_per_s" and "step_ms" (per-worker mean).
exp::ReplicaResult speed_replica(const ScenarioCell& cell, int replica,
                                 util::Rng& rng, obs::Telemetry* telemetry);

/// The base spec behind the `speed` sweep: one PS, one us-central1 K80
/// worker on ResNet-15 for 800 steps (the axes set pool and model).
ScenarioSpec speed_scenario();

/// `resilience`: runs one full TransientTrainingRun (auto-replacement,
/// checkpoints to an ObjectStore) of the cell's spec, whose fault_rate
/// axis sets the uniform injection rates. Observations: "completed"
/// (0/1), "makespan_s" (finished runs only), "cost_usd",
/// "launch_retries", "fallbacks", "slots_abandoned", "revocations",
/// "abrupt_kills", "checkpoints", "faults_injected" — the raw material
/// of the degradation curves in EXPERIMENTS.md.
exp::ReplicaResult resilience_replica(const ScenarioCell& cell, int replica,
                                      util::Rng& rng,
                                      obs::Telemetry* telemetry);

/// The base spec behind the `resilience` sweep: two us-central1 K80s,
/// 400 steps with a checkpoint every 100, a 48 h horizon, and one
/// 30-minute K80 capacity stockout from t=300 s, long enough that
/// backoff alone cannot wait it out.
ScenarioSpec resilience_scenario();

/// `detection`: one supervised TransientTrainingRun per replica on the
/// short-lived europe-west1 K80 pool with every fault notice-less at
/// abrupt_kill_rate=1. Observations: "ttr_s" (revocation -> replacement
/// running, includes detection latency), "detection_latency_s" (p99),
/// "detection_latency_p50_s", "detection_latency_mean_s",
/// "detections", "false_detections", "revocations", "abrupt_kills",
/// "steps", "finished". The catalog sweep crosses
/// supervise.heartbeat_timeout_s x abrupt_kill_rate; EXPERIMENTS.md
/// reads mean ttr_s as a function of the timeout axis.
exp::ReplicaResult detection_replica(const ScenarioCell& cell, int replica,
                                     util::Rng& rng,
                                     obs::Telemetry* telemetry);

/// The base spec behind the `detection` sweep, exposed for tests that
/// want to shrink the grid (fewer replicas, fewer timeout values).
ScenarioSpec detection_scenario();

/// `fleet`: one multi-tenant market run per replica (fleet::FleetSim —
/// finite pools, endogenous pricing/reclamation, global scheduler).
/// Observations: "finished" (fleet drained), "tenants_finished",
/// "deadline_hit_rate", "usd_per_kstep" (the scheduler's objective),
/// "cost_usd", "steps", "placements", "evictions_reclaim",
/// "evictions_priceout", "evictions_total", "migrations". The catalog
/// sweep crosses fleet.tenants x fleet.demand x fleet.scheduler, so the
/// CSV directly answers "does the Eq. 4-aware scheduler beat
/// round-robin, and how fast do endogenous revocations rise with
/// demand?".
exp::ReplicaResult fleet_replica(const ScenarioCell& cell, int replica,
                                 util::Rng& rng, obs::Telemetry* telemetry);

/// The base spec behind the `fleet` sweep and scenarios/fleet.scn: 256
/// tenants on the full 12-pool market, mixed canonical models, a 12 h
/// horizon against an 8 h deadline. Exposed so tests can shrink it.
ScenarioSpec fleet_scenario();

/// `storm`: correlated failure storms vs elastic degraded-mode
/// training. Each cell crosses one OutageStorm intensity (the `storms`
/// axis) with `supervise.elastic.enabled`; the fallback ladder is
/// disabled so the 1-for-1 arm burns its launch-attempt budget into the
/// dead pool and permanently abandons slots, while the elastic arm
/// shrinks through the circuit breaker and regrows after the stockout
/// tail. Observations: "finished", "steps", "time_to_target_s",
/// "cost_usd", "usd_per_kstep", "elastic_shrinks", "elastic_grows",
/// "breaker_opens", "slots_abandoned", "outage_revocations",
/// "outage_denials". EXPERIMENTS.md compares the two arms on
/// usd_per_kstep and time_to_target_s per storm intensity.
exp::ReplicaResult storm_replica(const ScenarioCell& cell, int replica,
                                 util::Rng& rng, obs::Telemetry* telemetry);

/// The base spec behind the `storm` sweep and scenarios/storm.scn: four
/// us-central1 K80s, one 0.6-kill storm with a 90-minute stockout tail,
/// supervision on, elastic off (the sweep axis flips it). Exposed so
/// tests can shrink it.
ScenarioSpec storm_scenario();

/// `ckpt`: durable checkpoint data plane vs flat checkpoints under
/// storage corruption. Each cell crosses `ckpt.enabled` with the
/// bit-rot rate; the plane arm writes generational base+delta
/// checkpoints through the storage tiers, verifies end-to-end on every
/// restore, and falls back across generations when integrity fails.
/// Observations: "finished", "steps", "cost_usd", "restarts",
/// "revocations", "ckpt_base_writes", "ckpt_delta_writes",
/// "ckpt_compactions", "ckpt_quarantines", "ckpt_verified_restores",
/// "ckpt_cold_restarts", "ckpt_tier_cost_usd". EXPERIMENTS.md reads the
/// quarantine/fallback/cold-restart mix as a function of corruption
/// pressure.
exp::ReplicaResult ckpt_replica(const ScenarioCell& cell, int replica,
                                util::Rng& rng, obs::Telemetry* telemetry);

/// The base spec behind the `ckpt` sweep and scenarios/ckpt_tiers.scn:
/// three us-central1 K80s with uniform cloud faults plus write-time
/// bit rot, torn writes and a mid-run regional-tier outage; the plane
/// enabled with a 4-delta chain over 3 retained generations. Exposed so
/// tests can shrink it.
ScenarioSpec ckpt_scenario();

}  // namespace cmdare::scenario
