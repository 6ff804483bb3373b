// Named Monte-Carlo campaigns: the paper's measurement studies as
// ScenarioSweep entries over one engine.
//
// Each entry pairs a base ScenarioSpec and its sweep axes with the
// replica that realizes one independent sample of the study — the
// Figure 8 / Table V lifetime census, the launch-placement grid behind
// the Section V-C ablation, the cluster training-speed sweeps of Tables
// I/III, the fault-rate degradation curves, and the supervision, fleet,
// storm and checkpoint studies. Every replica reads its cell from the
// cell's spec (pool, launch hour, job length, step budget), so a campaign
// is fully described by spec keys. The five harness studies (resilience,
// detection, fleet, storm, ckpt) state their observations as a
// result_replica() metric list over ScenarioResult rows; lifetime and
// launch sample the hazard model and speed reads the session trace, so
// those three keep the replica functions below. The `cmdare_campaign`
// CLI example runs catalog entries by name; bench_fig8 and
// bench_ablation_launch build their statistics on the same replicas
// through the parallel engine.
#pragma once

#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::scenario {

/// A catalog entry: a base ScenarioSpec plus set_field axes, and the
/// replica that turns one cell into observations (set on every entry, so
/// callers may invoke it directly).
struct NamedScenarioSweep {
  std::string name;
  std::string description;
  ScenarioSweep sweep;
  ScenarioReplicaFn replica;
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

/// The base spec behind the `resilience` sweep: two us-central1 K80s,
/// 400 steps with a checkpoint every 100, a 48 h horizon, and one
/// 30-minute K80 capacity stockout from t=300 s, long enough that
/// backoff alone cannot wait it out.
ScenarioSpec resilience_scenario();

/// The base spec behind the `detection` sweep, exposed for tests that
/// want to shrink the grid (fewer replicas, fewer timeout values).
ScenarioSpec detection_scenario();

/// The base spec behind the `fleet` sweep and scenarios/fleet.scn: 256
/// tenants on the full 12-pool market, mixed canonical models, a 12 h
/// horizon against an 8 h deadline. Exposed so tests can shrink it.
ScenarioSpec fleet_scenario();

/// The base spec behind the `storm` sweep and scenarios/storm.scn: four
/// us-central1 K80s, one 0.6-kill storm with a 90-minute stockout tail,
/// supervision on, elastic off (the sweep axis flips it). Exposed so
/// tests can shrink it.
ScenarioSpec storm_scenario();

/// The base spec behind the `ckpt` sweep and scenarios/ckpt_tiers.scn:
/// three us-central1 K80s with uniform cloud faults plus write-time
/// bit rot, torn writes and a mid-run regional-tier outage; the plane
/// enabled with a 4-delta chain over 3 retained generations. Exposed so
/// tests can shrink it.
ScenarioSpec ckpt_scenario();

}  // namespace cmdare::scenario
