// Generic scenario campaigns: sweep *any* ScenarioSpec field.
//
// A ScenarioSweep is a base spec plus a list of (key, values) axes —
// the keys are exactly the ones ScenarioSpec's text codec understands,
// so everything that can appear in a .scn file can be swept: fault_rate,
// checkpoint_interval_steps, ft_mode, workers, ps_count, ... expand()
// takes the cartesian product (first axis slowest) and materializes one
// ScenarioCell per combination by applying set_field() to a copy of the
// base spec.
//
// run_scenario_campaign() executes the grid on exp::run_grid, which
// supplies the determinism guarantees: replica (c, r) draws from
// Rng(seed).fork(c).fork(r), aggregation folds in replica order within
// each cell, and the CSV is therefore byte-identical at any --jobs. The
// default replica builds a SimHarness on the cell's spec and reports a
// standard metric set; result_replica() observes any other list of
// ScenarioResult rows, and a custom ScenarioReplicaFn anything else.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "scenario/harness.hpp"
#include "scenario/spec.hpp"
#include "util/table.hpp"

namespace cmdare::scenario {

/// One sweep dimension: a spec key and the values it takes, in the text
/// encoding set_field() accepts (e.g. {"fault_rate", {"0", "0.1"}}).
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

struct ScenarioSweep {
  std::string name = "sweep";
  ScenarioSpec base;
  std::vector<SweepAxis> axes;
  int replicas = 1;
  std::uint64_t seed = 1;
};

/// One grid cell: the fully materialized spec plus the axis settings
/// that produced it (in axis order).
struct ScenarioCell {
  std::size_t index = 0;
  ScenarioSpec spec;
  std::vector<std::pair<std::string, std::string>> settings;

  /// "key=value key=value" (or the spec name when there are no axes).
  std::string label() const;
};

/// Cartesian product of the axes over the base spec; a sweep with no
/// axes yields the base spec as a single cell. Throws
/// std::invalid_argument when an axis key/value is rejected by
/// set_field() or the resulting spec fails validate().
std::vector<ScenarioCell> expand(const ScenarioSweep& sweep);

/// Replica callback: build whatever the cell's spec describes and report
/// observations. The rng is the replica's private stream (hand it to
/// SimHarness's campaign constructor).
using ScenarioReplicaFn = std::function<exp::ReplicaResult(
    const ScenarioCell& cell, int replica, util::Rng& rng,
    obs::Telemetry* telemetry)>;

/// One campaign observation copied from a ScenarioResult row: the CSV
/// metric name, the row it reads (a ScenarioResult::rows() name; empty =
/// the row named `metric`), and an optional gate row — when set, the
/// metric is observed only if the gate row's value is > 0.
struct ResultMetric {
  std::string metric;
  std::string row = {};
  std::string gate = {};
};

/// A replica that runs SimHarness(cell.spec, rng) and observes `metrics`
/// in list order. Row names resolve here, once; an unknown row or gate
/// throws std::invalid_argument.
ScenarioReplicaFn result_replica(const std::vector<ResultMetric>& metrics);

/// The default replica: result_replica over finished / steps / makespan_s
/// / cost_usd / revocations / launch_retries / checkpoints /
/// faults_injected.
exp::ReplicaResult harness_replica(const ScenarioCell& cell, int replica,
                                   util::Rng& rng, obs::Telemetry* telemetry);

struct ScenarioCampaignResult {
  ScenarioSweep sweep;
  std::vector<ScenarioCell> cells;
  std::vector<exp::CellAggregate> aggregates;  // parallel to cells
  exp::Progress progress;
  int jobs_used = 1;
  double wall_seconds = 0.0;
  std::unique_ptr<obs::Telemetry> telemetry;

  /// Deterministic aggregate CSV: one row per (cell, metric), with one
  /// column per sweep axis. Byte-identical across thread counts.
  void write_csv(std::ostream& out) const;
  util::Table summary_table() const;
};

/// Runs the sweep. `replica` defaults to harness_replica.
ScenarioCampaignResult run_scenario_campaign(
    const ScenarioSweep& sweep, const exp::RunOptions& options = {},
    const ScenarioReplicaFn& replica = {});

}  // namespace cmdare::scenario
