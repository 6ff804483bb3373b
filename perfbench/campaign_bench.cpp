// campaign_bench: the measuring half of the campaign benchmark. run.py
// drives it, one process per measurement, checks its outputs and folds
// its samples into metrics.
//
//   campaign_bench --workload storm --mode setup
//   campaign_bench --workload storm --mode pass --jobs 4
//   campaign_bench --workload storm --mode trace --jobs 4
//
// Every mode prints one JSON object on stdout.
//
//   setup  times "spec text in hand" -> first replica starting: parse the
//          serialized base spec, then run_scenario_campaign (which expands
//          the grid and starts the engine) until its first replica call.
//          A fresh process per probe, so lazily built tables count.
//   pass   runs the campaign pipeline once, as cmdare_campaign and
//          run_report do: expand and run the sweep at --jobs, write the
//          aggregate CSV and, for telemetry workloads, the merged ledger
//          JSONL and its analysis. A wrapper around the catalog replica
//          function times every replica call. Reports the wall time, the
//          per-replica times and digests of the outputs.
//   trace  times calls into each layer's public functions from here:
//          parse / expand / model_by_name / CloudProvider micro timings,
//          the pipeline at 1 and --jobs threads, and four direct passes
//          over a replica sample (the replica function itself, plain for
//          build and run() timings, with an obs::SimProfiler observer for
//          per-tag callback shares, and with a telemetry bundle installed
//          for the capture cost).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "nn/model_zoo.hpp"
#include "obs/analyze.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "obs/sim_profiler.hpp"
#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "simcore/simulator.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace cmdare;
using Clock = std::chrono::steady_clock;
namespace json = util::json;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps timed results observable so no call is optimized away.
std::atomic<std::size_t> g_sink{0};
void sink(std::size_t value) {
  g_sink.fetch_add(value, std::memory_order_relaxed);
}

// --- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  scenario::ScenarioSweep sweep;
  scenario::ScenarioReplicaFn replica;
  bool capture_telemetry = false;
  // Replicas per cell in the direct traced passes (a sample, to bound the
  // trace run's length on workloads with long replicas).
  int trace_replicas = 1;
};

Workload from_catalog(const std::string& workload, const std::string& sweep) {
  const scenario::NamedScenarioSweep& named = scenario::sweep_by_name(sweep);
  Workload w;
  w.name = workload;
  w.sweep = named.sweep;
  w.replica = named.replica;
  return w;
}

// bench_snapshot's speed spec widened into a grid of short replicas.
Workload short_sweep() {
  scenario::ScenarioSpec spec;
  spec.name = "short_sweep";
  spec.kind = scenario::HarnessKind::kRun;
  spec.model = "resnet-32";
  spec.max_steps = 500;
  spec.checkpoint_interval_steps = 100;
  spec.workers.push_back(
      {3, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true});
  spec.faults = faults::FaultPlan::uniform(0.2);
  spec.seed = 2020;

  Workload w;
  w.name = spec.name;
  w.sweep.name = spec.name;
  w.sweep.base = spec;
  w.sweep.axes = {
      {"model",
       {"resnet-15", "resnet-32", "shake-shake-small", "shake-shake-big"}},
      {"fault_rate", {"0", "0.1", "0.2"}},
      {"checkpoint_interval_steps", {"50", "100", "250"}},
  };
  w.sweep.replicas = 120;
  w.sweep.seed = spec.seed;
  w.replica = scenario::harness_replica;
  w.trace_replicas = 4;
  return w;
}

// The catalog ckpt sweep with capture on, shrunk so the merged telemetry
// stays bounded (the full sweep with capture peaks near 10 GB).
Workload ckpt_telemetry() {
  Workload w = from_catalog("ckpt_telemetry", "ckpt");
  w.sweep.name = w.name;
  w.sweep.base.model = "shake-shake-big";
  w.sweep.base.max_steps = 20000;
  w.sweep.base.checkpoint_interval_steps = 800;
  w.sweep.replicas = 2;
  w.capture_telemetry = true;
  w.trace_replicas = w.sweep.replicas;
  return w;
}

Workload make_workload(const std::string& name) {
  if (name == "storm") return from_catalog(name, "storm");
  if (name == "fleet") return from_catalog(name, "fleet");
  if (name == "short_sweep") return short_sweep();
  if (name == "ckpt_telemetry") return ckpt_telemetry();
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

// --- the campaign pipeline -------------------------------------------------

std::string digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char text[48];
  std::snprintf(text, sizeof(text), "%016llx-%zu",
                static_cast<unsigned long long>(hash), bytes.size());
  return text;
}

struct PipelineRun {
  int jobs = 1;
  double wall_s = 0.0;       // expand + run + every output written
  double grid_wall_s = 0.0;  // the engine's own wall time
  double write_csv_s = 0.0;
  std::size_t replicas = 0;
  std::size_t failed = 0;
  double steps = 0.0;
  std::vector<double> replica_ms;  // per (cell, replica); -1 = failed
  std::map<std::string, std::string> digests;
};

/// One campaign the way cmdare_campaign and run_report run it: expand and
/// run the sweep, write the aggregate CSV and, with capture on, the merged
/// ledger and its analysis. Outputs go to memory; only their digests leave.
PipelineRun run_pipeline(const Workload& w, std::size_t cells, int jobs) {
  const int replicas = w.sweep.replicas;
  PipelineRun run;
  run.jobs = jobs;
  run.replica_ms.assign(cells * static_cast<std::size_t>(replicas), -1.0);
  // Each call writes only its own slot; run_grid joins before returning.
  const scenario::ScenarioReplicaFn timed =
      [&](const scenario::ScenarioCell& cell, int r, util::Rng& rng,
          obs::Telemetry* telemetry) {
        const auto start = Clock::now();
        exp::ReplicaResult result = w.replica(cell, r, rng, telemetry);
        run.replica_ms[cell.index * replicas + r] =
            1e3 * seconds_since(start);
        return result;
      };
  exp::RunOptions options;
  options.jobs = jobs;
  options.capture_telemetry = w.capture_telemetry;

  std::ostringstream csv;
  std::ostringstream ledger;
  std::ostringstream analysis;
  const auto start = Clock::now();
  const scenario::ScenarioCampaignResult result =
      scenario::run_scenario_campaign(w.sweep, options, timed);
  const auto csv_start = Clock::now();
  result.write_csv(csv);
  run.write_csv_s = seconds_since(csv_start);
  if (w.capture_telemetry) {
    obs::write_ledger_jsonl(result.telemetry->ledger, ledger);
    obs::analyze::write_analysis_csv(
        obs::analyze::analyze_ledger(result.telemetry->ledger), analysis);
  }
  run.wall_s = seconds_since(start);
  run.grid_wall_s = result.wall_seconds;

  run.replicas = result.progress.replicas_total;
  run.failed = result.progress.replicas_failed;
  for (const exp::CellAggregate& agg : result.aggregates) {
    const auto it = agg.metrics.find("steps");
    if (it == agg.metrics.end()) continue;
    for (const double v : it->second.values) run.steps += v;
  }
  run.digests["csv"] = digest(csv.str());
  if (w.capture_telemetry) {
    run.digests["ledger"] = digest(ledger.str());
    run.digests["analysis"] = digest(analysis.str());
  }
  return run;
}

json::Value pipeline_json(const PipelineRun& run) {
  json::Array ms;
  for (const double v : run.replica_ms) ms.push_back(json::make_number(v));
  json::Object digests;
  for (const auto& [name, value] : run.digests) {
    digests[name] = json::make_string(value);
  }
  return json::make_object({
      {"jobs", json::make_number(run.jobs)},
      {"wall_s", json::make_number(run.wall_s)},
      {"grid_wall_s", json::make_number(run.grid_wall_s)},
      {"replicas", json::make_number(static_cast<double>(run.replicas))},
      {"failed", json::make_number(static_cast<double>(run.failed))},
      {"steps", json::make_number(run.steps)},
      {"replica_ms", json::make_array(std::move(ms))},
      {"digests", json::make_object(std::move(digests))},
  });
}

// --- setup -----------------------------------------------------------------

double measure_setup(const Workload& w) {
  const std::string text = scenario::serialize(w.sweep.base);
  scenario::ScenarioSweep sweep = w.sweep;
  exp::RunOptions options;
  options.jobs = 1;
  options.capture_telemetry = w.capture_telemetry;
  Clock::time_point first_replica;
  bool started = false;

  const auto start = Clock::now();
  scenario::ParseResult parsed = scenario::parse(text);
  if (!parsed.ok()) {
    throw std::runtime_error("base spec does not round-trip: " +
                             parsed.diagnostics.front().message);
  }
  sweep.base = std::move(parsed.spec);
  scenario::run_scenario_campaign(
      sweep, options,
      [&](const scenario::ScenarioCell&, int, util::Rng&, obs::Telemetry*) {
        if (!started) {
          first_replica = Clock::now();
          started = true;
        }
        return exp::ReplicaResult{};
      });
  return std::chrono::duration<double>(first_replica - start).count();
}

// --- trace -----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median µs per call of `body` over repeats filling ~`budget_s` (at
/// least five). `body` returns the seconds it timed.
template <typename Fn>
double median_call_us(Fn&& body, double budget_s = 0.05) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 || seconds_since(start) < budget_s) {
    samples.push_back(1e6 * body());
  }
  return median(std::move(samples));
}

template <typename Fn>
double timed_s(Fn&& body) {
  const auto start = Clock::now();
  body();
  return seconds_since(start);
}

// Callsite-tag prefixes of each layer's simulator callbacks.
const std::vector<std::pair<std::string, std::vector<std::string>>>&
layer_tags() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      layers = {
          {"cloud", {"provider.", "storage."}},
          {"train", {"worker.", "ps.", "session.", "chief."}},
          {"supervise",
           {"supervise.", "elastic.", "resilience.", "controller."}},
          {"fleet", {"fleet."}},
          {"ckpt", {"ckpt."}},
      };
  return layers;
}

struct TagTotals {
  std::uint64_t fired = 0;
  double wall_s = 0.0;
};

Metrics trace_iteration(const Workload& w,
                        const std::vector<scenario::ScenarioCell>& cells,
                        int wide, std::vector<PipelineRun>* pipelines) {
  Metrics m;
  const scenario::ScenarioSpec& base = w.sweep.base;

  // scenario / nn / cloud: single public calls.
  const std::string text = scenario::serialize(base);
  m["scenario.parse_us"] = median_call_us([&] {
    return timed_s([&] { sink(scenario::parse(text).diagnostics.size()); });
  });
  m["scenario.expand_us_per_cell"] =
      median_call_us([&] {
        return timed_s([&] { sink(scenario::expand(w.sweep).size()); });
      }) /
      static_cast<double>(cells.size());
  m["nn.model_by_name_us"] = median_call_us([&] {
    return timed_s(
        [&] { sink(nn::model_by_name(base.model).layers().size()); });
  });
  m["cloud.provider_ctor_us"] = median_call_us([&] {
    simcore::Simulator sim;
    const util::Rng rng = util::Rng(w.sweep.seed).fork("cloud");
    const auto start = Clock::now();
    cloud::CloudProvider provider(sim, rng, base.utc_start_hour);
    const double s = seconds_since(start);
    sink(provider.instance_count());
    return s;
  });

  // exp: the pipeline at 1 and W jobs.
  PipelineRun serial = run_pipeline(w, cells.size(), 1);
  PipelineRun parallel = run_pipeline(w, cells.size(), wide);
  auto call_s = [](const PipelineRun& run) {
    double total = 0.0;
    for (const double v : run.replica_ms) total += std::max(v, 0.0) / 1e3;
    return total;
  };
  const double slowest_s =
      *std::max_element(serial.replica_ms.begin(), serial.replica_ms.end()) /
      1e3;
  m["exp.engine_overhead_pct"] =
      100.0 * (serial.grid_wall_s - call_s(serial)) / serial.grid_wall_s;
  m["exp.pool_busy_pct_j4"] =
      100.0 * call_s(parallel) / (wide * parallel.grid_wall_s);
  m["exp.critical_path_pct_j4"] = 100.0 * slowest_s / parallel.grid_wall_s;
  m["exp.write_csv_us"] = 1e6 * serial.write_csv_s;

  // Direct passes over the first trace_replicas replicas of every cell,
  // each drawing the engine's stream for (cell, replica).
  const util::Rng root(w.sweep.seed);
  const int sample = std::min(w.trace_replicas, w.sweep.replicas);
  std::vector<double> build_us;  // plain pass: SimHarness constructor
  std::vector<double> run_us;    // plain pass: run()
  double traced_s = 0.0;         // Σ run() with the SimProfiler attached
  double capture_build_s = 0.0;  // with a telemetry bundle installed
  double capture_s = 0.0;
  std::map<std::string, TagTotals> tags;
  double callback_s = 0.0;
  std::size_t max_depth = 0;
  double events = 0.0;
  double steps = 0.0;
  double ckpt_writes = 0.0;
  double ckpt_restores = 0.0;
  double ckpt_quarantines = 0.0;
  double trace_records = 0.0;
  double ledger_events = 0.0;
  double ledger_write_s = 0.0;
  double analyze_s = 0.0;
  double sampled_call_s = 0.0;
  for (const scenario::ScenarioCell& cell : cells) {
    for (int r = 0; r < sample; ++r) {
      const util::Rng rng = root.fork(static_cast<std::uint64_t>(cell.index))
                                .fork(static_cast<std::uint64_t>(r));
      {
        // The replica function itself, under the pipeline's telemetry
        // setting, for the check that build + run() explain its time.
        util::Rng call_rng = rng;
        std::unique_ptr<obs::ScopedTelemetry> telemetry;
        if (w.capture_telemetry) {
          telemetry = std::make_unique<obs::ScopedTelemetry>();
        }
        const auto start = Clock::now();
        sink(w.replica(cell, r, call_rng,
                       telemetry ? &telemetry->get() : nullptr)
                 .observations.size());
        sampled_call_s += seconds_since(start);
      }
      {
        auto start = Clock::now();
        scenario::SimHarness harness(cell.spec, rng);
        build_us.push_back(1e6 * seconds_since(start));
        start = Clock::now();
        const scenario::ScenarioResult result = harness.run();
        run_us.push_back(1e6 * seconds_since(start));
        events += static_cast<double>(harness.simulator().events_fired());
        steps += static_cast<double>(result.completed_steps);
        ckpt_writes += static_cast<double>(result.ckpt_base_writes +
                                           result.ckpt_delta_writes);
        ckpt_restores += static_cast<double>(result.ckpt_verified_restores);
        ckpt_quarantines += static_cast<double>(result.ckpt_quarantines);
      }
      {
        obs::SimProfiler profiler;
        scenario::SimHarness harness(cell.spec, rng);
        harness.simulator().set_observer(&profiler);
        const auto start = Clock::now();
        harness.run();
        traced_s += seconds_since(start);
        for (const auto& [tag, stats] : profiler.tags()) {
          tags[tag].fired += stats.fired;
          tags[tag].wall_s += stats.wall_seconds;
        }
        callback_s += profiler.total_wall_seconds();
        max_depth = std::max(max_depth, profiler.max_queue_depth());
      }
      {
        obs::ScopedTelemetry telemetry;
        auto start = Clock::now();
        scenario::SimHarness harness(cell.spec, rng);
        capture_build_s += seconds_since(start);
        start = Clock::now();
        harness.run();
        capture_s += seconds_since(start);
        trace_records += static_cast<double>(telemetry->tracer.record_count());
        ledger_events += static_cast<double>(telemetry->ledger.size());
        std::ostringstream out;
        ledger_write_s +=
            timed_s([&] { obs::write_ledger_jsonl(telemetry->ledger, out); });
        sink(out.str().size());
        analyze_s += timed_s([&] {
          sink(obs::analyze::analyze_ledger(telemetry->ledger).counts.events);
        });
      }
    }
  }

  auto seconds_of = [](const std::vector<double>& us) {
    double total = 0.0;
    for (const double v : us) total += v / 1e6;
    return total;
  };
  const double n = static_cast<double>(run_us.size());
  const double build_s = seconds_of(build_us);
  const double run_s = seconds_of(run_us);

  m["scenario.build_us_p50"] = median(build_us);
  m["scenario.run_us_p50"] = median(run_us);
  m["scenario.build_share_pct"] = 100.0 * build_s / (build_s + run_s);

  m["simcore.events_per_replica"] = events / n;
  m["simcore.ns_per_event"] = 1e9 * run_s / events;
  m["simcore.self_pct"] = 100.0 * (traced_s - callback_s) / traced_s;
  m["simcore.max_queue_depth"] = static_cast<double>(max_depth);

  double covered_pct = m["simcore.self_pct"];
  for (const auto& [layer, prefixes] : layer_tags()) {
    double wall = 0.0;
    for (const auto& [tag, t] : tags) {
      for (const std::string& prefix : prefixes) {
        if (tag.compare(0, prefix.size(), prefix) == 0) wall += t.wall_s;
      }
    }
    m[layer + ".callback_pct"] = 100.0 * wall / traced_s;
    covered_pct += m[layer + ".callback_pct"];
  }
  const auto tick = tags.find("fleet.tick");
  m["fleet.tick_us"] = tick == tags.end() || tick->second.fired == 0
                           ? 0.0
                           : 1e6 * tick->second.wall_s /
                                 static_cast<double>(tick->second.fired);
  m["train.steps_per_replica"] = steps / n;
  m["ckpt.writes_per_replica"] = ckpt_writes / n;
  m["ckpt.verified_restores_per_replica"] = ckpt_restores / n;
  m["ckpt.quarantines_per_replica"] = ckpt_quarantines / n;

  m["obs.capture_overhead_pct"] = 100.0 * (capture_s - run_s) / run_s;
  m["obs.trace_records"] = trace_records / n;
  m["obs.ledger_events"] = ledger_events / n;
  m["obs.ledger_write_ms"] = 1e3 * ledger_write_s / n;
  m["obs.analyze_ms"] = 1e3 * analyze_s / n;

  // Accounting checks: the observer's cost on run(); whether constructor
  // plus run() explain the replica call (under the same telemetry setting
  // as the pipeline); whether the layer tag groups plus engine self time
  // cover run().
  m["trace.overhead_pct"] = 100.0 * (traced_s - run_s) / run_s;
  const double explained =
      w.capture_telemetry ? capture_build_s + capture_s : build_s + run_s;
  m["trace.build_run_cover_pct"] = 100.0 * explained / sampled_call_s;
  m["trace.callback_cover_pct"] = covered_pct;
  pipelines->push_back(std::move(serial));
  pipelines->push_back(std::move(parallel));
  return m;
}

json::Value metrics_json(const Metrics& metrics) {
  json::Object out;
  for (const auto& [name, value] : metrics) {
    out[name] = json::make_number(value);
  }
  return json::make_object(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string mode = "pass";
  std::string seed_text;
  int jobs = 1;

  util::ArgParser args("campaign_bench",
                       "Time one benchmark workload; prints one JSON object.");
  args.add_value("workload", "NAME",
                 "storm, fleet, short_sweep or ckpt_telemetry",
                 &workload_name);
  args.add_value("mode", "MODE", "setup, pass or trace", &mode);
  args.add_value("seed", "S", "campaign seed (default: the workload's)",
                 &seed_text);
  args.add_int("jobs", "N",
               "worker threads of the pass (trace: of its parallel pass)",
               &jobs);
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

  try {
    Workload w = make_workload(workload_name);
    const std::uint64_t default_seed = w.sweep.seed;
    if (!seed_text.empty()) w.sweep.seed = std::stoull(seed_text);
    if (jobs < 1) throw std::invalid_argument("--jobs must be at least 1");

    json::Object out = {
        {"workload", json::make_string(w.name)},
        {"seed", json::make_number(static_cast<double>(w.sweep.seed))},
        {"default_seed", json::make_number(static_cast<double>(default_seed))},
    };
    if (mode == "setup") {
      out["setup_s"] = json::make_number(measure_setup(w));
    } else if (mode == "pass") {
      // The grid size without expanding it, so nothing warms up early.
      std::size_t cells = 1;
      for (const scenario::SweepAxis& axis : w.sweep.axes) {
        cells *= axis.values.size();
      }
      out["pipeline"] = pipeline_json(run_pipeline(w, cells, jobs));
    } else if (mode == "trace") {
      std::vector<PipelineRun> pipelines;
      out["layers"] = metrics_json(
          trace_iteration(w, scenario::expand(w.sweep), jobs, &pipelines));
      json::Array runs;
      for (const PipelineRun& run : pipelines) {
        runs.push_back(pipeline_json(run));
      }
      out["pipelines"] = json::make_array(std::move(runs));
    } else {
      throw std::invalid_argument("unknown mode \"" + mode + "\"");
    }
    std::printf("%s\n",
                json::serialize(json::make_object(std::move(out))).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
