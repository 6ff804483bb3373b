#include "scenario/harness.hpp"

#include <stdexcept>
#include <utility>

#include "nn/model_zoo.hpp"
#include "obs/obs.hpp"
#include "util/strings.hpp"

namespace cmdare::scenario {
namespace {

train::SessionConfig session_config(const ScenarioSpec& spec,
                                    ckpt::CheckpointPlane* plane) {
  train::SessionConfig config;
  config.ps_count = spec.ps_count;
  config.checkpoint_interval_steps = spec.checkpoint_interval_steps;
  config.checkpoint_max_retries = spec.checkpoint_max_retries;
  config.max_steps = spec.max_steps;
  config.mode = spec.ft_mode;
  config.ps_region = spec.ps_region;
  config.plane = plane;
  return config;
}

std::vector<train::WorkerSpec> expand_workers(const ScenarioSpec& spec) {
  std::vector<train::WorkerSpec> workers;
  for (const WorkerGroup& group : spec.workers) {
    for (int i = 0; i < group.count; ++i) {
      train::WorkerSpec worker;
      worker.gpu = group.gpu;
      worker.region = group.region;
      worker.transient = group.transient;
      worker.label = spec.model;
      workers.push_back(worker);
    }
  }
  return workers;
}

/// The counts of the kinds without a control plane: kind=cloud counts the
/// provider's revoked instances (and the abrupt kills among them),
/// kind=fleet counts every eviction as a revocation.
core::RunCounters revoked_counters(const cloud::CloudProvider& provider) {
  core::RunCounters counters;
  for (const cloud::InstanceRecord& record : provider.records()) {
    if (record.state != cloud::InstanceState::kRevoked) continue;
    ++counters.revocations;
    if (record.abrupt_kill) ++counters.abrupt_kills;
  }
  return counters;
}

core::RunCounters evicted_counters(const fleet::FleetStats& stats) {
  return {.revocations = static_cast<int>(stats.evictions_total())};
}

// --- the result list -----------------------------------------------------

/// Every ScenarioResult field, once, in table() order: the row's name, the
/// field, and how table() prints it — a flag, a count, a duration, or a
/// number with fixed decimals. section(active) opens a group of rows that
/// table() prints only when `active`; rows() reads every row. table(),
/// rows() and through rows() every campaign metric list read this list,
/// so adding a field means adding one line here.
template <typename Visitor>
void visit_rows(const ScenarioResult& r, Visitor& v) {
  v.flag("finished", r.finished);
  v.count("completed_steps", r.completed_steps);
  v.duration("elapsed", r.elapsed_seconds);
  v.number("cost_usd", r.cost_usd, 4);
  v.count("revocations", r.revocations);
  v.count("replacements", r.replacements);
  v.count("restarts", r.restarts);
  v.count("launch_retries", r.launch_retries);
  v.count("fallbacks", r.fallbacks);
  v.count("slots_abandoned", r.slots_abandoned);
  v.count("notices", r.notices);
  v.count("abrupt_kills", r.abrupt_kills);
  v.count("checkpoint_blobs", r.checkpoint_blobs);
  v.count("last_checkpoint_step", r.last_checkpoint_step);
  v.count("faults_injected", r.faults_injected);
  v.count("detections", r.detections);
  v.count("false_detections", r.false_detections);
  v.number("detection_latency_p50", r.detection_latency_p50, 2);
  v.number("detection_latency_p99", r.detection_latency_p99, 2);
  v.number("detection_latency_mean", r.detection_latency_mean, 2);
  v.count("interval_retunes", r.interval_retunes);
  v.count("fenced_workers", r.fenced_workers);
  v.count("hedges_cancelled", r.hedges_cancelled);
  v.number("mean_recovery_seconds", r.mean_recovery_seconds, 2);
  v.section(r.elastic_shrinks > 0 || r.elastic_grows > 0 ||
            r.breaker_transitions > 0);
  v.count("elastic_shrinks", r.elastic_shrinks);
  v.count("elastic_grows", r.elastic_grows);
  v.count("breaker_transitions", r.breaker_transitions);
  v.count("breaker_opens", r.breaker_opens);
  v.section(r.outage_revocations > 0 || r.outage_denials > 0);
  v.count("outage_revocations", r.outage_revocations);
  v.count("outage_denials", r.outage_denials);
  v.section(r.ckpt_base_writes > 0 || r.ckpt_delta_writes > 0 ||
            r.ckpt_quarantines > 0 || r.ckpt_cold_restarts > 0);
  v.count("ckpt_base_writes", r.ckpt_base_writes);
  v.count("ckpt_delta_writes", r.ckpt_delta_writes);
  v.count("ckpt_compactions", r.ckpt_compactions);
  v.count("ckpt_quarantines", r.ckpt_quarantines);
  v.count("ckpt_verified_restores", r.ckpt_verified_restores);
  v.count("ckpt_cold_restarts", r.ckpt_cold_restarts);
  v.number("ckpt_tier_cost_usd", r.ckpt_tier_cost_usd, 4);
  v.section(r.tenants > 0);
  v.count("tenants", r.tenants);
  v.count("tenants_finished", r.tenants_finished);
  v.number("deadline_hit_rate", r.deadline_hit_rate, 3);
  v.count("placements", r.placements);
  v.count("evictions_reclaim", r.evictions_reclaim);
  v.count("evictions_priceout", r.evictions_priceout);
  v.count("migrations", r.migrations);
  v.number("usd_per_kstep", r.usd_per_kstep, 4);
}

/// table(): one (name, text) row per row of an active section.
struct TablePrinter {
  util::Table& table;
  bool active = true;

  void add(std::string_view name, std::string text) {
    if (active) table.add_row({std::string(name), std::move(text)});
  }
  void section(bool on) { active = on; }
  void flag(std::string_view name, bool field) {
    add(name, field ? "true" : "false");
  }
  template <typename T>
  void count(std::string_view name, T field) {
    add(name, std::to_string(field));
  }
  void duration(std::string_view name, double field) {
    add(name, util::format_duration(field));
  }
  void number(std::string_view name, double field, int decimals) {
    add(name, util::format_double(field, decimals));
  }
};

/// rows(): every row as a double, whatever its section.
struct RowCollector {
  std::vector<ResultRow> rows;

  void add(std::string_view name, double value) {
    rows.emplace_back(name, value);
  }
  void section(bool) {}
  void flag(std::string_view name, bool field) { add(name, field); }
  void count(std::string_view name, double field) { add(name, field); }
  void duration(std::string_view name, double field) { add(name, field); }
  void number(std::string_view name, double field, int) { add(name, field); }
};

}  // namespace

util::Table ScenarioResult::table() const {
  util::Table table({"field", "value"});
  TablePrinter printer{table};
  visit_rows(*this, printer);
  return table;
}

std::vector<ResultRow> ScenarioResult::rows() const {
  RowCollector collector;
  visit_rows(*this, collector);
  return std::move(collector.rows);
}

SimHarness::SimHarness(ScenarioSpec spec)
    : SimHarness(spec, util::Rng(spec.seed)) {}

SimHarness::SimHarness(ScenarioSpec spec, const util::Rng& root)
    : spec_(std::move(spec)),
      root_(root),
      injector_(spec_.faults, root_.fork("faults")),
      provider_(sim_, root_.fork("cloud"), spec_.utc_start_hour),
      store_(sim_, root_.fork("store")) {
  std::vector<std::string> errors = validate(spec_);
  if (!errors.empty()) {
    throw std::invalid_argument("SimHarness: invalid spec: " +
                                util::join(errors, "; "));
  }
  build();
}

void SimHarness::build() {
  provider_.set_fault_injector(&injector_);
  store_.set_fault_injector(&injector_);
  if (spec_.ckpt.enabled) {
    store_.set_tiers(spec_.store_tiers);
    plane_ = std::make_unique<ckpt::CheckpointPlane>(sim_, store_, spec_.ckpt,
                                                     &injector_);
  }
  const nn::CnnModel model = nn::model_by_name(spec_.model);

  switch (spec_.kind) {
    case HarnessKind::kRun: {
      core::RunConfig config;
      config.session = session_config(spec_, plane_.get());
      config.workers = expand_workers(spec_);
      config.auto_replace = spec_.auto_replace;
      config.replacement_context = spec_.replacement_context;
      config.resilience = spec_.resilience;
      config.supervision = spec_.supervision;
      run_ = std::make_unique<core::TransientTrainingRun>(
          provider_, model, std::move(config), root_.fork("run"), &store_);
      break;
    }
    case HarnessKind::kSession: {
      session_ = std::make_unique<train::TrainingSession>(
          sim_, model, session_config(spec_, plane_.get()),
          root_.fork("session"), &store_);
      for (const train::WorkerSpec& worker : expand_workers(spec_)) {
        session_->add_worker(worker);
      }
      break;
    }
    case HarnessKind::kSync: {
      sync_ = std::make_unique<train::SyncTrainingSession>(
          sim_, model, spec_.ps_count, spec_.max_steps, root_.fork("sync"));
      for (const train::WorkerSpec& worker : expand_workers(spec_)) {
        sync_->add_worker(worker);
      }
      break;
    }
    case HarnessKind::kCloud:
      // Provider-only scenarios drive request_instance() themselves
      // through the provider() accessor before calling run().
      break;
    case HarnessKind::kFleet:
      fleet_ = std::make_unique<fleet::FleetSim>(
          sim_, provider_, spec_.fleet, model, root_.fork("fleet"));
      break;
  }
}

train::TrainingSession* SimHarness::session() {
  if (run_) return &run_->session();
  return session_.get();
}

ScenarioResult SimHarness::run() {
  if (ran_) {
    throw std::logic_error("SimHarness::run: scenario already ran");
  }
  ran_ = true;

  switch (spec_.kind) {
    case HarnessKind::kRun:
      run_->start();
      break;
    case HarnessKind::kSync:
      sync_->start();
      break;
    case HarnessKind::kFleet:
      fleet_->start();
      break;
    case HarnessKind::kSession:
    case HarnessKind::kCloud:
      break;  // sessions self-start on add_worker; cloud is caller-driven
  }

  if (spec_.horizon_hours > 0.0) {
    sim_.run_until(spec_.horizon_hours * 3600.0);
  } else {
    sim_.run();
  }
  return collect();
}

ScenarioResult SimHarness::collect() {
  // Close the books before reading them: bill still-running instances
  // (and the open PS segment) up to now, so a horizon-limited run's
  // ledger carries every billed second exactly once.
  if (obs::ledger()) {
    if (spec_.kind == HarnessKind::kRun && run_) run_->record_billing_tick();
    if (spec_.kind == HarnessKind::kRun ||
        spec_.kind == HarnessKind::kCloud ||
        spec_.kind == HarnessKind::kFleet) {
      provider_.record_billing_ticks();
    }
  }
  // Final market snapshot so horizon-limited fleet runs expose the
  // end-state capacity/price gauges.
  if (spec_.kind == HarnessKind::kFleet) provider_.export_market_gauges();

  ScenarioResult result;
  core::RunCounters& counters = result;
  result.checkpoint_blobs = store_.blob_count();
  result.faults_injected = injector_.injected_total();
  if (plane_) {
    result.ckpt_base_writes = plane_->base_writes();
    result.ckpt_delta_writes = plane_->delta_writes();
    result.ckpt_compactions = plane_->compactions();
    result.ckpt_quarantines = plane_->quarantines();
    result.ckpt_verified_restores = plane_->verified_restores();
    result.ckpt_cold_restarts = plane_->cold_restarts();
    result.ckpt_tier_cost_usd = plane_->tier_cost_usd();
  }
  result.outage_revocations = provider_.outage_revocations();
  result.outage_denials = provider_.outage_denials();

  switch (spec_.kind) {
    case HarnessKind::kRun: {
      const core::TransientTrainingRun& run = *run_;
      result.finished = run.finished();
      result.completed_steps = run.completed_steps();
      result.elapsed_seconds = run.finished() ? run.elapsed_seconds()
                                              : sim_.now();
      result.cost_usd = run.cost_so_far();
      if (result.completed_steps > 0) {
        result.usd_per_kstep = 1000.0 * result.cost_usd /
                               static_cast<double>(result.completed_steps);
      }
      counters = run.counters();
      result.last_checkpoint_step = run.session().last_checkpoint_step();
      if (const supervise::Supervisor* supervisor = run.supervisor()) {
        result.detections = supervisor->detections();
        result.false_detections = supervisor->false_positives();
        result.detection_latency_p50 =
            supervisor->detection_latency_quantile(0.50);
        result.detection_latency_p99 =
            supervisor->detection_latency_quantile(0.99);
        result.detection_latency_mean = supervisor->detection_latency_mean();
        result.interval_retunes = supervisor->controller().retunes();
        result.mean_recovery_seconds = run.mean_recovery_seconds();
        result.breaker_transitions = supervisor->breaker().transitions();
        result.breaker_opens = supervisor->breaker().opens();
      }
      break;
    }
    case HarnessKind::kSession:
      result.finished = session_->finished();
      result.completed_steps = session_->global_step();
      result.elapsed_seconds = sim_.now();
      result.last_checkpoint_step = session_->last_checkpoint_step();
      break;
    case HarnessKind::kSync:
      result.finished = sync_->finished();
      result.completed_steps = sync_->global_step();
      result.elapsed_seconds = sim_.now();
      break;
    case HarnessKind::kCloud: {
      result.finished = true;
      result.elapsed_seconds = sim_.now();
      result.cost_usd = provider_.total_cost();
      counters = revoked_counters(provider_);
      break;
    }
    case HarnessKind::kFleet: {
      const fleet::FleetStats stats = fleet_->stats();
      result.finished = fleet_->all_done();
      result.completed_steps = static_cast<long>(stats.completed_steps);
      result.elapsed_seconds = sim_.now();
      result.cost_usd = stats.cost_usd;
      counters = evicted_counters(stats);
      result.tenants = stats.tenants;
      result.tenants_finished = stats.finished;
      result.deadline_hit_rate = stats.deadline_hit_rate();
      result.placements = stats.placements;
      result.evictions_reclaim = stats.evictions_reclaim;
      result.evictions_priceout = stats.evictions_priceout;
      result.migrations = stats.migrations;
      result.usd_per_kstep = stats.usd_per_step() * 1000.0;
      break;
    }
  }
  return result;
}

}  // namespace cmdare::scenario
