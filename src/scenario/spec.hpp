// Declarative scenario descriptions (the "what" of an experiment).
//
// The paper's framing is that one framework expresses every measurement —
// the lifetime censuses, the speed tables, the fault-tolerance ablations,
// the §VI use cases — over one substrate. ScenarioSpec is that idea made
// first-class: a plain struct naming the model, worker mix, session and
// checkpoint configuration, deadline, seed, fault plan and resilience
// policy of an entire experiment, with a human-readable `key = value`
// text form so scenarios live in files (scenarios/*.scn), CLI arguments,
// and campaign cells instead of hand-wired C++.
//
// The text codec round-trips: parse(serialize(spec)) reproduces `spec`
// exactly (doubles are emitted shortest-round-trip via std::to_chars).
// parse() never throws on malformed input — it returns per-line
// diagnostics (unknown keys, range errors) instead, so fuzzed or
// user-edited files fail loudly but safely. set_field() is the shared
// single-key setter underneath both the parser and the sweep axes of
// run_scenario_campaign, which is what makes *every* spec field
// sweepable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/config.hpp"
#include "cloud/gpu.hpp"
#include "cloud/region.hpp"
#include "cloud/startup.hpp"
#include "cloud/tier.hpp"
#include "cmdare/resource_manager.hpp"
#include "faults/faults.hpp"
#include "fleet/config.hpp"
#include "train/cluster.hpp"

namespace cmdare::scenario {

/// Which substrate SimHarness builds for the scenario.
enum class HarnessKind {
  /// Full CM-DARE control plane: TransientTrainingRun on a CloudProvider
  /// with auto-replacement, fallback ladder, and checkpoint restores.
  kRun,
  /// Bare asynchronous TrainingSession (no cloud provider driving the
  /// workers; they join directly). The ft-mode ablations live here.
  kSession,
  /// Synchronous-SGD baseline (SyncTrainingSession).
  kSync,
  /// Provider only: no training at all. Revocation censuses (Table V).
  kCloud,
  /// Multi-tenant fleet market (fleet::FleetSim): N tenant jobs sharing
  /// one provider with finite pools, endogenous pricing/revocations, and
  /// a global scheduler. Configured by the `fleet.*` keys.
  kFleet,
};

const char* harness_kind_name(HarnessKind kind);

/// A homogeneous group of workers, e.g. "3 x K80 @ us-central1".
struct WorkerGroup {
  int count = 1;
  cloud::GpuType gpu = cloud::GpuType::kK80;
  cloud::Region region = cloud::Region::kUsCentral1;
  bool transient = true;

  friend bool operator==(const WorkerGroup&, const WorkerGroup&) = default;
};

struct ScenarioSpec {
  std::string name = "scenario";
  HarnessKind kind = HarnessKind::kRun;
  std::uint64_t seed = 1;

  /// Model-zoo name (nn::model_by_name).
  std::string model = "resnet-15";
  /// Worker groups, expanded in order into the session's worker list.
  /// May be empty for kind=session/cloud (workers added externally).
  std::vector<WorkerGroup> workers;

  // --- training session ---
  int ps_count = 1;
  long max_steps = 1000;
  long checkpoint_interval_steps = 0;
  int checkpoint_max_retries = 2;
  train::FaultToleranceMode ft_mode = train::FaultToleranceMode::kCmDare;
  cloud::Region ps_region = cloud::Region::kUsCentral1;

  // --- control plane (kind=run) ---
  bool auto_replace = true;
  cloud::RequestContext replacement_context =
      cloud::RequestContext::kImmediateAfterRevocation;
  core::ResiliencePolicy resilience;

  // --- cloud / clock ---
  /// UTC hour-of-day at simulated t=0 (drives per-region local time).
  double utc_start_hour = 12.0;
  /// Run deadline in simulated hours; 0 = run the event queue dry.
  double horizon_hours = 0.0;

  // --- faults ---
  faults::FaultPlan faults;

  // --- checkpoint data plane ---
  /// Tiered, checksummed, generational checkpoints (src/ckpt). All keys
  /// are prefixed `ckpt.`; disabled by default — legacy flat checkpoints
  /// and byte-identical seeded goldens.
  ckpt::PlaneConfig ckpt;
  /// Storage-tier physics/pricing (`store.tier.*` keys); only consulted
  /// when the data plane is enabled.
  cloud::TierSet store_tiers;

  // --- supervision (kind=run) ---
  /// Online supervision layer: heartbeat failure detection, hazard
  /// tracking, adaptive checkpointing, health-scored replacement. All
  /// keys are prefixed `supervise.`; disabled by default.
  supervise::SupervisionConfig supervision;

  // --- fleet market (kind=fleet) ---
  /// Tenant population, market curves, and global scheduler policy. All
  /// keys are prefixed `fleet.`; only read when kind=fleet.
  fleet::FleetConfig fleet;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// One parse problem, anchored to a 1-based input line (0 = file-level,
/// e.g. a semantic validation failure).
struct Diagnostic {
  int line = 0;
  std::string message;
};

struct ParseResult {
  ScenarioSpec spec;
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return diagnostics.empty(); }
};

/// Parses the `key = value` text form. Never throws on bad input: every
/// problem (missing '=', unknown key, unparsable or out-of-range value,
/// failed semantic validation) becomes a Diagnostic. The returned spec
/// reflects every line that did parse.
ParseResult parse(std::string_view text);

/// Emits the canonical text form: every scalar field in a fixed order,
/// plus `workers` / `stockouts` / `storms` lines when non-empty.
/// Lossless: parse(serialize(spec)).spec == spec for any valid spec.
std::string serialize(const ScenarioSpec& spec);

/// Sets one field by key (the same keys serialize() emits, plus the
/// write-only conveniences `fault_rate` — FaultPlan::uniform shorthand —
/// and `worker` / `stockout` / `storm` / `ckpt.tier_outage`, which append
/// one entry). Returns an error message, or std::nullopt on success; a
/// rejected value leaves the spec untouched. This is the extension point
/// that makes any field sweepable by run_scenario_campaign.
std::optional<std::string> set_field(ScenarioSpec& spec, std::string_view key,
                                     std::string_view value);

/// Checks every field holds a value set_field() could have stored (so
/// the text form reads back to the same spec), then the cross-field
/// rules: unknown model name, missing workers for kinds that need them,
/// a run that could never terminate, inconsistent fleet, heartbeat and
/// elastic settings. Empty = valid.
std::vector<std::string> validate(const ScenarioSpec& spec);

}  // namespace cmdare::scenario
