// Named Monte-Carlo campaigns: the paper's measurement studies as
// ScenarioSweep entries over one engine.
//
// The checked-in scenarios/*.scn are compiled into this library
// (scenario_files()). The six harness sweeps below take their base spec
// from one through checked_in_scenario(), as do two demos, three
// reproduce experiments and bench_snapshot.
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
// those three keep the replica functions below. The `scenario_runner`
// CLI example runs catalog entries by name; reproduce's fig8 and
// ablation_launch experiments build their statistics on these replicas
// through the parallel engine.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::scenario {

/// One checked-in scenarios/<stem>.scn, compiled into the library.
struct ScenarioFile {
  std::string_view stem, text;
};

/// Every checked-in scenario file, sorted by stem.
std::span<const ScenarioFile> scenario_files();

/// Parses scenarios/<stem>.scn. Throws std::invalid_argument for an
/// unknown stem, or with the file's first diagnostic as
/// "scenarios/<stem>.scn:<line>: <message>".
ScenarioSpec checked_in_scenario(std::string_view stem);

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

}  // namespace cmdare::scenario
