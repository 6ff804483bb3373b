#include "scenario/sweep.hpp"

#include <ostream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace cmdare::scenario {
namespace {

std::string format_value(double v) { return util::format_double(v, 6); }

}  // namespace

std::string ScenarioCell::label() const {
  if (settings.empty()) return spec.name;
  std::string out;
  for (const auto& [key, value] : settings) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::vector<ScenarioCell> expand(const ScenarioSweep& sweep) {
  std::size_t count = 1;
  for (const SweepAxis& axis : sweep.axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("scenario::expand: axis \"" + axis.key +
                                  "\" has no values");
    }
    count *= axis.values.size();
  }

  std::vector<ScenarioCell> cells;
  cells.reserve(count);
  for (std::size_t index = 0; index < count; ++index) {
    ScenarioCell cell;
    cell.index = index;
    cell.spec = sweep.base;
    // Mixed-radix decode, first axis slowest (odometer order).
    std::size_t remainder = index;
    std::size_t stride = count;
    for (const SweepAxis& axis : sweep.axes) {
      stride /= axis.values.size();
      const std::string& value = axis.values[remainder / stride];
      remainder %= stride;
      if (auto error = set_field(cell.spec, axis.key, value)) {
        throw std::invalid_argument("scenario::expand: " + axis.key + " = " +
                                    value + ": " + *error);
      }
      cell.settings.emplace_back(axis.key, value);
    }
    std::vector<std::string> errors = validate(cell.spec);
    if (!errors.empty()) {
      throw std::invalid_argument("scenario::expand: cell " +
                                  std::to_string(index) + " (" + cell.label() +
                                  ") invalid: " + util::join(errors, "; "));
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

exp::ReplicaResult harness_replica(const ScenarioCell& cell, int /*replica*/,
                                   util::Rng& rng,
                                   obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();
  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("makespan_s", outcome.elapsed_seconds);
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("launch_retries", static_cast<double>(outcome.launch_retries));
  result.observe("checkpoints", static_cast<double>(outcome.checkpoint_blobs));
  result.observe("faults_injected",
                 static_cast<double>(outcome.faults_injected));
  return result;
}

void ScenarioCampaignResult::write_csv(std::ostream& out) const {
  util::CsvWriter writer(out);
  std::vector<std::string> header = {"campaign", "cell"};
  for (const SweepAxis& axis : sweep.axes) header.push_back(axis.key);
  for (const char* column :
       {"metric", "replicas_ok", "replicas_failed", "count", "mean", "sd",
        "cov", "min", "p10", "p50", "p90", "max"}) {
    header.push_back(column);
  }
  writer.write_row(header);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ScenarioCell& cell = cells[c];
    const exp::CellAggregate& agg = aggregates[c];
    std::vector<std::string> prefix = {sweep.name, std::to_string(cell.index)};
    for (const auto& [key, value] : cell.settings) prefix.push_back(value);
    auto row_for = [&](const std::string& metric,
                       const std::vector<std::string>& tail) {
      std::vector<std::string> row = prefix;
      row.push_back(metric);
      row.push_back(std::to_string(agg.replicas_ok));
      row.push_back(std::to_string(agg.replicas_failed));
      row.insert(row.end(), tail.begin(), tail.end());
      writer.write_row(row);
    };
    if (agg.metrics.empty()) {
      // Keep the cell visible even when every replica failed (or none
      // reported anything, like a lifetime pool the paper never measured).
      row_for("(none)", {"0", "0", "0", "0", "0", "0", "0", "0", "0"});
      continue;
    }
    for (const auto& [metric, m] : agg.metrics) {
      const bool has_sd = m.running.count() >= 2;
      row_for(metric,
              {std::to_string(m.running.count()),
               format_value(m.running.mean()),
               format_value(has_sd ? m.running.stddev() : 0.0),
               format_value(m.cov()), format_value(m.running.min()),
               format_value(m.quantile(0.10)), format_value(m.quantile(0.50)),
               format_value(m.quantile(0.90)), format_value(m.running.max())});
    }
  }
}

util::Table ScenarioCampaignResult::summary_table() const {
  util::Table table({"cell", "metric", "n", "mean", "sd", "cov", "p10", "p50",
                     "p90", "failed"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const exp::CellAggregate& agg = aggregates[c];
    if (agg.metrics.empty()) {
      table.add_row({cells[c].label(), "(none)", "0", "", "", "", "", "", "",
                     std::to_string(agg.replicas_failed)});
      continue;
    }
    bool first = true;
    for (const auto& [metric, m] : agg.metrics) {
      const bool has_sd = m.running.count() >= 2;
      table.add_row({first ? cells[c].label() : "", metric,
                     std::to_string(m.running.count()),
                     util::format_double(m.running.mean(), 4),
                     util::format_double(has_sd ? m.running.stddev() : 0.0, 4),
                     util::format_double(m.cov(), 3),
                     util::format_double(m.quantile(0.10), 4),
                     util::format_double(m.quantile(0.50), 4),
                     util::format_double(m.quantile(0.90), 4),
                     first ? std::to_string(agg.replicas_failed) : ""});
      first = false;
    }
  }
  return table;
}

ScenarioCampaignResult run_scenario_campaign(const ScenarioSweep& sweep,
                                             const exp::RunOptions& options,
                                             const ScenarioReplicaFn& replica) {
  if (sweep.replicas < 1) {
    throw std::invalid_argument("run_scenario_campaign: replicas < 1");
  }
  ScenarioCampaignResult result;
  result.sweep = sweep;
  result.cells = expand(sweep);
  const ScenarioReplicaFn& fn = replica ? replica : harness_replica;

  exp::GridResult grid = exp::run_grid(
      result.cells.size(), sweep.replicas, sweep.seed,
      [&](std::size_t c, int r, util::Rng& rng, obs::Telemetry* telemetry) {
        return fn(result.cells[c], r, rng, telemetry);
      },
      options);
  result.aggregates = std::move(grid.aggregates);
  result.progress = grid.progress;
  result.jobs_used = grid.jobs_used;
  result.wall_seconds = grid.wall_seconds;
  result.telemetry = std::move(grid.telemetry);

  if (obs::Registry* registry = obs::registry()) {
    const obs::LabelSet labels = {{"campaign", sweep.name}};
    registry->counter("scenario.campaign.replicas_total", labels)
        .inc(static_cast<double>(result.progress.replicas_total));
    registry->counter("scenario.campaign.replicas_failed", labels)
        .inc(static_cast<double>(result.progress.replicas_failed));
    registry->counter("scenario.campaign.cells_total", labels)
        .inc(static_cast<double>(result.cells.size()));
  }
  return result;
}

}  // namespace cmdare::scenario
