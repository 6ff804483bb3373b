// bench_snapshot: the in-repo performance regression gate, and the only
// in-repo timer (perfbench/run.py is the end-to-end campaign benchmark).
//
//   bench_snapshot --kind micro --out BENCH_micro.json                # refresh
//   bench_snapshot --check BENCH_micro.json --check BENCH_speed.json  # CI gate
//
// Write mode runs one suite (micro = event queue, a training session with
// telemetry off and on, ledger; speed = scenarios/bench_speed.scn replicas
// and the checkpoint plane; fleet = a shrunk fleet sweep), each workload
// on one thread, and serializes its best-of-N throughput numbers as a
// small JSON document (to stdout without --out). Check mode re-runs the
// suite named inside each snapshot file and fails (exit 1) when any
// metric regressed beyond the tolerance band — improvements never fail.
// scripts/ci.sh --bench runs check mode against the checked-in
// BENCH_*.json at the repo root; ctest's smoke.bench_snapshot.* runs each
// suite once and checks only its exit status.
//
// Snapshot schema (schema 1):
//   {"kind":"micro","metrics":{"name":{"higher_is_better":true,
//    "value":1234.5}},"schema":1}
//
// The numbers are wall-clock throughputs, so the tolerance default is a
// wide 0.6 (fail only when a metric is more than 1.6x slower than the
// snapshot, rate or cost alike): the gate is meant to catch
// order-of-magnitude regressions (an accidentally quadratic queue, a
// ledger probe on the hot path), not 5% noise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/plane.hpp"
#include "cloud/storage.hpp"
#include "nn/model_zoo.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "scenario/catalog.hpp"
#include "scenario/sweep.hpp"
#include "simcore/simulator.hpp"
#include "train/cluster.hpp"
#include "train/session.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace cmdare;

struct Metric {
  double value = 0.0;
  bool higher_is_better = true;
};

using MetricMap = std::map<std::string, Metric>;

constexpr int kSchemaVersion = 1;
constexpr int kRepeats = 5;  // best-of-N wall-clock repeats per workload

/// Best (minimum) wall-clock seconds over kRepeats runs of `body`.
template <typename Fn>
double best_seconds(Fn&& body) {
  double best = 0.0;
  for (int i = 0; i < kRepeats; ++i) {
    const auto started = std::chrono::steady_clock::now();
    body();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    if (i == 0 || elapsed < best) best = elapsed;
  }
  return best > 0.0 ? best : 1e-12;
}

// --- micro suite -----------------------------------------------------------

/// Event-queue throughput: schedule + fire kEvents timer events spread
/// over 97 distinct times.
constexpr std::size_t kEvents = 100000;

double run_sim_events() {
  std::uint64_t sink = 0;
  const double secs = best_seconds([&] {
    simcore::Simulator sim;
    for (std::size_t i = 0; i < kEvents; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    sim.run();
  });
  return static_cast<double>(kEvents) / secs;
}

/// Cancellation-heavy variant: half the events are cancelled and
/// replaced before the run drains, so the number tracks slot
/// release/re-lease and stale-entry skipping, not just schedule/fire
/// throughput. Reported as events *fired* per second — the
/// cancel + replacement cost is folded into the rate.
double run_sim_churn() {
  std::uint64_t sink = 0;
  std::vector<simcore::EventHandle> handles;
  const double secs = best_seconds([&] {
    simcore::Simulator sim;
    handles.clear();
    handles.reserve(kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
      handles.push_back(
          sim.schedule_at(static_cast<double>(i % 97), [&sink] { ++sink; }));
    }
    for (std::size_t i = 0; i < kEvents; i += 2) {
      handles[i].cancel();
      sim.schedule_at(static_cast<double>(97 + i % 89), [&sink] { ++sink; });
    }
    sim.run();
  });
  return static_cast<double>(kEvents) / secs;
}

/// Best wall-clock seconds of a 2000-step resnet-32 session on four K80
/// workers, with the full obs bundle installed when `telemetry` is set.
double session_seconds(bool telemetry) {
  const nn::CnnModel model = nn::resnet32();
  return best_seconds([&] {
    std::unique_ptr<obs::ScopedTelemetry> scoped;
    if (telemetry) scoped = std::make_unique<obs::ScopedTelemetry>();
    simcore::Simulator sim;
    train::SessionConfig config;
    config.max_steps = 2000;
    train::TrainingSession session(sim, model, config, util::Rng(1));
    for (const auto& w : train::worker_mix(4, 0, 0)) session.add_worker(w);
    sim.run();
  });
}

/// Ledger recording + JSONL serialization throughput.
double run_ledger_events() {
  constexpr std::size_t kLedgerEvents = 100000;
  std::size_t sink = 0;
  const double secs = best_seconds([&] {
    obs::Ledger ledger;
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kBilling;
    event.source = "cloud";
    event.detail = {{"gpu", "k80"}};
    for (std::size_t i = 0; i < kLedgerEvents; ++i) {
      event.at = static_cast<double>(i) * 0.25;
      event.instance = static_cast<long long>(i % 64);
      event.seconds = 30.0;
      event.usd = 0.001;
      ledger.record(event);
    }
    std::ostringstream out;
    obs::write_ledger_jsonl(ledger, out);
    sink += out.str().size();
  });
  (void)sink;
  return static_cast<double>(kLedgerEvents) / secs;
}

MetricMap run_micro() {
  MetricMap metrics;
  const double events_per_sec = run_sim_events();
  metrics["sim_events_per_sec"] = {events_per_sec, true};
  metrics["sim_ns_per_event"] = {1e9 / events_per_sec, false};
  metrics["sim_churn_events_per_sec"] = {run_sim_churn(), true};

  const double disabled = session_seconds(false);
  const double enabled = session_seconds(true);
  metrics["session_steps_per_sec"] = {2000.0 / disabled, true};
  // Full-telemetry cost on top of the disabled path, in percent. Clamped
  // at zero: on a noisy machine "enabled" can win a coin flip.
  const double overhead =
      enabled > disabled ? (enabled - disabled) / disabled * 100.0 : 0.0;
  metrics["obs_overhead_pct"] = {overhead, false};

  metrics["ledger_events_per_sec"] = {run_ledger_events(), true};
  return metrics;
}

// --- speed suite -----------------------------------------------------------

/// Checkpoint-data-plane hot loop: commit a steady stream of base/delta
/// generations through the tiered store and re-verify the newest
/// restorable generation after every commit. Covers manifest planning,
/// tier placement/demotion, end-to-end verification, and promotion on
/// restore — the path every rollback pays under churn.
constexpr int kCkptRestores = 2000;

double run_ckpt_restores() {
  std::uint64_t sink = 0;
  const double secs = best_seconds([&] {
    simcore::Simulator sim;
    cloud::ObjectStore store(sim, util::Rng(7).fork("store"));
    ckpt::PlaneConfig config;
    config.enabled = true;
    ckpt::CheckpointPlane plane(sim, store, config);
    for (int i = 0; i < kCkptRestores; ++i) {
      const ckpt::PlannedWrite write =
          plane.plan_write((i + 1) * 100L, 90'000'000ull);
      store.upload(write.key, write.bytes, [] {}, nullptr, write.tier);
      sim.run();
      plane.commit_write(write);
      sink += static_cast<std::uint64_t>(plane.restorable_step());
    }
  });
  (void)sink;
  return static_cast<double>(kCkptRestores) / secs;
}

/// Best-of-kRepeats wall time of `sweep` on one thread, as
/// replicas_per_sec and (from the summed "steps" aggregate) `steps_name`.
MetricMap time_campaign(const scenario::ScenarioSweep& sweep,
                        const std::string& steps_name,
                        const scenario::ScenarioReplicaFn& replica = {}) {
  exp::RunOptions options;
  options.jobs = 1;

  long total_steps = 0;
  std::size_t total_replicas = 0;
  const double secs = best_seconds([&] {
    const scenario::ScenarioCampaignResult result =
        scenario::run_scenario_campaign(sweep, options, replica);
    total_steps = 0;
    total_replicas = result.progress.replicas_done;
    for (const exp::CellAggregate& agg : result.aggregates) {
      const auto it = agg.metrics.find("steps");
      if (it != agg.metrics.end()) {
        total_steps += static_cast<long>(it->second.running.mean() *
                                         it->second.running.count());
      }
    }
  });
  return {{"replicas_per_sec", {static_cast<double>(total_replicas) / secs}},
          {steps_name, {static_cast<double>(total_steps) / secs}}};
}

/// A shrunk version of the speed scenario: one cell, 8 replicas of
/// scenarios/bench_speed.scn (a 3-worker transient run with checkpoints),
/// on one thread so the number is a per-core throughput.
MetricMap run_speed() {
  scenario::ScenarioSweep sweep;
  sweep.base = scenario::checked_in_scenario("bench_speed");
  sweep.name = sweep.base.name;
  sweep.replicas = 8;
  sweep.seed = sweep.base.seed;
  MetricMap metrics = time_campaign(sweep, "steps_per_sec");
  metrics["ckpt_restore_per_sec"] = {run_ckpt_restores(), true};
  return metrics;
}

// --- fleet suite -----------------------------------------------------------

/// A shrunk fleet market sweep (32 tenants, 6 h horizon, one cell per
/// scheduler policy) on one thread: exercises the shared-provider market
/// tick, endogenous clearing, and both global schedulers end to end, so
/// a perf regression anywhere in the fleet path shows up as tenant-step
/// throughput loss.
MetricMap run_fleet() {
  const scenario::NamedScenarioSweep& named = scenario::sweep_by_name("fleet");
  scenario::ScenarioSweep sweep = named.sweep;
  sweep.name = "bench-fleet";
  sweep.base.fleet.tenants = 32;
  sweep.base.fleet.min_steps = 2000;
  sweep.base.fleet.max_steps = 8000;
  sweep.base.fleet.checkpoint_interval_steps = 200;
  sweep.base.horizon_hours = 6.0;
  sweep.axes = {{"fleet.demand", {"2"}},
                {"fleet.scheduler", {"round-robin", "cost-optimal"}}};
  sweep.replicas = 2;
  sweep.seed = 2020;
  return time_campaign(sweep, "tenant_steps_per_sec", named.replica);
}

// --- snapshot codec --------------------------------------------------------

MetricMap run_kind(const std::string& kind) {
  if (kind == "micro") return run_micro();
  if (kind == "speed") return run_speed();
  if (kind == "fleet") return run_fleet();
  return {};
}

std::string serialize_snapshot(const std::string& kind,
                               const MetricMap& metrics) {
  util::json::Value root = util::json::make_object();
  auto& top = *root.object;
  top["schema"] = util::json::make_number(kSchemaVersion);
  top["kind"] = util::json::make_string(kind);
  util::json::Value metrics_value = util::json::make_object();
  for (const auto& [name, metric] : metrics) {
    util::json::Value entry = util::json::make_object();
    (*entry.object)["value"] = util::json::make_number(metric.value);
    (*entry.object)["higher_is_better"] =
        util::json::make_bool(metric.higher_is_better);
    (*metrics_value.object)[name] = std::move(entry);
  }
  top["metrics"] = std::move(metrics_value);
  return util::json::serialize(root) + "\n";
}

struct Snapshot {
  std::string kind;
  MetricMap metrics;
};

bool parse_snapshot(const std::string& text, Snapshot* out,
                    std::string* error) {
  const util::json::ParseResult parsed = util::json::parse(text);
  if (!parsed.ok()) {
    *error = parsed.error;
    return false;
  }
  const util::json::Value& root = *parsed.value;
  if (!root.is_object()) {
    *error = "snapshot is not a JSON object";
    return false;
  }
  const util::json::Value* schema = root.find("schema");
  if (!schema || !schema->is_number() ||
      schema->number != kSchemaVersion) {
    *error = "unsupported snapshot schema";
    return false;
  }
  const util::json::Value* kind = root.find("kind");
  if (!kind || !kind->is_string()) {
    *error = "snapshot has no kind";
    return false;
  }
  out->kind = kind->string;
  const util::json::Value* metrics = root.find("metrics");
  if (!metrics || !metrics->is_object()) {
    *error = "snapshot has no metrics object";
    return false;
  }
  for (const auto& [name, entry] : *metrics->object) {
    if (!entry.is_object()) {
      *error = "metric \"" + name + "\" is not an object";
      return false;
    }
    const util::json::Value* value = entry.find("value");
    const util::json::Value* higher = entry.find("higher_is_better");
    if (!value || !value->is_number() || !higher ||
        !higher->is_bool()) {
      *error = "metric \"" + name + "\" is malformed";
      return false;
    }
    out->metrics[name] = {value->number, higher->boolean};
  }
  return true;
}

/// Compares a fresh run against the checked-in snapshot. Returns the
/// number of regressions beyond the tolerance band.
int check_snapshot(const std::string& path, double tolerance) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Snapshot snapshot;
  std::string error;
  if (!parse_snapshot(buffer.str(), &snapshot, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  std::printf("== %s (kind %s, tolerance %.0f%%) ==\n", path.c_str(),
              snapshot.kind.c_str(), tolerance * 100.0);
  const MetricMap current = run_kind(snapshot.kind);
  if (current.empty()) {
    std::fprintf(stderr, "error: %s: unknown suite kind \"%s\"\n",
                 path.c_str(), snapshot.kind.c_str());
    return 1;
  }

  int regressions = 0;
  for (const auto& [name, baseline] : snapshot.metrics) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("  %-24s MISSING from this build\n", name.c_str());
      ++regressions;
      continue;
    }
    const Metric& now = it->second;
    // Slowdown factor minus one, so a rate and its reciprocal cost drift
    // alike: base / now - 1 for a rate, now / base - 1 for a cost. The
    // cost's denominator floor keeps near-zero baselines (e.g.
    // obs_overhead_pct of 0) from turning noise into an infinite ratio;
    // a rate that fell to zero or below has regressed.
    const double base = baseline.value;
    const double drift =
        baseline.higher_is_better
            ? (now.value > 0.0 ? base / now.value - 1.0 : HUGE_VAL)
            : (now.value - base) / std::max(std::abs(base), 1.0);
    const bool regressed = drift > tolerance;
    std::printf("  %-24s base %14.3f  now %14.3f  drift %+8.1f%%  %s\n",
                name.c_str(), base, now.value, 100.0 * drift,
                regressed ? "REGRESSED" : "ok");
    if (regressed) ++regressions;
  }
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  std::string kind;
  std::string out_path;
  std::vector<std::string> check_paths;
  std::string tolerance_text;

  util::ArgParser args("bench_snapshot",
                       "Write or check BENCH_*.json performance snapshots.");
  args.add_value("kind", "micro|speed|fleet", "suite to run (write mode)",
                 &kind);
  args.add_value("out", "FILE", "write the snapshot to FILE", &out_path);
  args.add_repeated("check", "FILE",
                    "check a snapshot file (repeatable); exit 1 on any "
                    "regression",
                    &check_paths);
  args.add_value("tolerance", "T",
                 "allowed relative regression (default 0.6 = 60%)",
                 &tolerance_text);

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                 args.help_text().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::fputs(args.help_text().c_str(), stdout);
    return 0;
  }

  double tolerance = 0.6;
  if (!tolerance_text.empty()) {
    tolerance = std::strtod(tolerance_text.c_str(), nullptr);
    if (!(tolerance > 0.0)) {
      std::fprintf(stderr, "error: --tolerance wants a positive number\n");
      return 1;
    }
  }

  if (!check_paths.empty()) {
    int regressions = 0;
    for (const std::string& path : check_paths) {
      regressions += check_snapshot(path, tolerance);
    }
    if (regressions > 0) {
      std::fprintf(stderr, "%d metric(s) regressed beyond tolerance\n",
                   regressions);
      return 1;
    }
    std::printf("all snapshots within tolerance\n");
    return 0;
  }

  if (kind != "micro" && kind != "speed" && kind != "fleet") {
    std::fprintf(stderr, "error: --kind wants micro, speed, or fleet\n");
    return 1;
  }
  const MetricMap metrics = run_kind(kind);
  const std::string text = serialize_snapshot(kind, metrics);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << text;
  std::printf("snapshot (%zu metrics) written to %s\n", metrics.size(),
              out_path.c_str());
  return 0;
}
