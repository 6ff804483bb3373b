// One-stop simulation harness (the "how" of an experiment).
//
// SimHarness turns a ScenarioSpec into a fully wired simulation: the
// simulator, the forked deterministic Rng streams, the cloud provider,
// the object store, the fault injector, optional telemetry, and the
// training substrate the spec's `kind` asks for. run() drives the event
// queue to the spec's deadline and returns a ScenarioResult.
//
// Determinism contract: the harness forks the exact stream labels the
// hand-wired replicas always used — "faults", "cloud", "store", "run"
// (kind=run), "session" (kind=session), "sync" (kind=sync) — off the
// root Rng it is given. util::Rng::fork is const, so fork *order* is
// irrelevant: a ScenarioSpec driven through SimHarness reproduces the
// pre-scenario-layer wiring bit-for-bit at the same seed
// (tests/scenario_harness_test.cpp pins this against golden outputs).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/plane.hpp"
#include "cloud/provider.hpp"
#include "cloud/storage.hpp"
#include "cmdare/resource_manager.hpp"
#include "faults/faults.hpp"
#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "scenario/spec.hpp"
#include "simcore/simulator.hpp"
#include "train/session.hpp"
#include "train/sync_session.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace cmdare::scenario {

/// One ScenarioResult row: the name table() prints and the field's value.
using ResultRow = std::pair<std::string_view, double>;

/// What one scenario run produced. Which fields are meaningful depends
/// on the spec's kind (e.g. the resilience counters are always zero for
/// kind=session, cost is provider-billed only for kind=run/cloud).
struct ScenarioResult {
  bool finished = false;
  long completed_steps = 0;
  /// Makespan when the run finished; otherwise sim time at the deadline.
  double elapsed_seconds = 0.0;
  double cost_usd = 0.0;

  // --- cloud / control plane ---
  int revocations = 0;
  int replacements = 0;
  int restarts = 0;
  int launch_retries = 0;
  int fallbacks = 0;
  int slots_abandoned = 0;
  int notices = 0;
  int abrupt_kills = 0;

  // --- checkpoints / faults ---
  std::size_t checkpoint_blobs = 0;
  long last_checkpoint_step = 0;
  std::uint64_t faults_injected = 0;

  // --- supervision (zero unless supervise.enabled) ---
  int detections = 0;
  int false_detections = 0;
  double detection_latency_p50 = 0.0;
  double detection_latency_p99 = 0.0;
  double detection_latency_mean = 0.0;
  int interval_retunes = 0;
  int fenced_workers = 0;
  int hedges_cancelled = 0;
  double mean_recovery_seconds = 0.0;

  // --- elastic membership (zero unless supervise.elastic.enabled) ---
  int elastic_shrinks = 0;
  int elastic_grows = 0;
  int breaker_transitions = 0;
  int breaker_opens = 0;

  // --- outage storms (zero unless the fault plan declares storms) ---
  std::uint64_t outage_revocations = 0;
  std::uint64_t outage_denials = 0;

  // --- checkpoint data plane (zero unless ckpt.enabled) ---
  std::uint64_t ckpt_base_writes = 0;
  std::uint64_t ckpt_delta_writes = 0;
  std::uint64_t ckpt_compactions = 0;
  std::uint64_t ckpt_quarantines = 0;
  std::uint64_t ckpt_verified_restores = 0;
  std::uint64_t ckpt_cold_restarts = 0;
  /// Dollars accrued across the storage tiers (writes + reads + moves).
  double ckpt_tier_cost_usd = 0.0;

  // --- fleet market (zero unless kind=fleet) ---
  int tenants = 0;
  int tenants_finished = 0;
  double deadline_hit_rate = 0.0;
  long placements = 0;
  long evictions_reclaim = 0;
  long evictions_priceout = 0;
  long migrations = 0;
  /// USD per thousand completed steps (kilo-steps keep the figure in a
  /// readable range): fleet-wide for kind=fleet, the scheduler's
  /// objective; billed cost over completed steps for kind=run once a
  /// step completed; zero otherwise.
  double usd_per_kstep = 0.0;

  /// Two-column (field, value) table for terminal output: the result
  /// list's rows, skipping the sections a run left inactive.
  util::Table table() const;

  /// Every row of the result list as (name, value), in table() order and
  /// including inactive sections; flags read 0/1.
  std::vector<ResultRow> rows() const;
};

class SimHarness {
 public:
  /// Standalone form: the root stream is Rng(spec.seed).
  explicit SimHarness(ScenarioSpec spec);
  /// Campaign form: the root stream is the replica's private Rng (the
  /// engine's Rng(seed).fork(cell).fork(replica)); spec.seed is ignored.
  SimHarness(ScenarioSpec spec, const util::Rng& root);

  SimHarness(const SimHarness&) = delete;
  SimHarness& operator=(const SimHarness&) = delete;

  /// Drives the simulation: starts the spec'd substrate, runs the event
  /// queue (to horizon_hours when > 0, else dry), and collects the
  /// result. Throws std::logic_error on a second call. (An invalid spec
  /// is rejected by the constructor with std::invalid_argument.)
  ScenarioResult run();

  /// The result of the completed run; throws std::logic_error before
  /// run() has been called.
  const ScenarioResult& result() const;

  const ScenarioSpec& spec() const { return spec_; }
  simcore::Simulator& simulator() { return sim_; }
  cloud::CloudProvider& provider() { return provider_; }
  cloud::ObjectStore& store() { return store_; }
  faults::FaultInjector& injector() { return injector_; }

  /// The active training session: the bare session for kind=session, the
  /// control plane's current session for kind=run, null otherwise.
  train::TrainingSession* session();
  train::SyncTrainingSession* sync_session() { return sync_.get(); }
  core::TransientTrainingRun* training_run() { return run_.get(); }
  fleet::FleetSim* fleet() { return fleet_.get(); }
  /// The checkpoint data plane; null unless spec.ckpt.enabled.
  ckpt::CheckpointPlane* plane() { return plane_.get(); }

  /// The thread's active telemetry bundle (the harness-owned one when the
  /// spec asked for telemetry and none was installed, the ambient one —
  /// e.g. a campaign replica's — otherwise). Null when disabled.
  obs::Telemetry* telemetry() { return obs::telemetry(); }

 private:
  void build();
  ScenarioResult collect();

  ScenarioSpec spec_;
  util::Rng root_;
  /// Installed only when spec_.telemetry is set and the thread had no
  /// bundle (campaign replicas already have one installed by exp).
  std::unique_ptr<obs::ScopedTelemetry> owned_telemetry_;
  faults::FaultInjector injector_;
  simcore::Simulator sim_;
  cloud::CloudProvider provider_;
  cloud::ObjectStore store_;
  /// Built before the substrate when spec.ckpt.enabled: sessions across
  /// restarts share one manifest (the plane is the durable state).
  std::unique_ptr<ckpt::CheckpointPlane> plane_;
  std::unique_ptr<train::TrainingSession> session_;
  std::unique_ptr<train::SyncTrainingSession> sync_;
  std::unique_ptr<core::TransientTrainingRun> run_;
  std::unique_ptr<fleet::FleetSim> fleet_;
  bool ran_ = false;
  ScenarioResult result_;
};

}  // namespace cmdare::scenario
