// scenario_runner: load a declarative scenario file and run it.
//
//   scenario_runner scenarios/resilience.scn
//   scenario_runner scenarios/quickstart.scn --set max_steps=5000
//   scenario_runner scenarios/resilience.scn --sweep fault_rate=0,0.1,0.2
//       --replicas 8 --jobs 4 --csv degradation.csv
//   scenario_runner scenarios/quickstart.scn --print   # canonical form
//   scenario_runner scenarios/resilience.scn --ledger run.jsonl --report
//   scenario_runner scenarios/supervise.scn --metrics supervise.
//
// A plain run wires the spec through SimHarness and prints the result
// table. With --sweep axes it becomes a Monte-Carlo campaign on the
// parallel engine (deterministic CSV at any --jobs value); --replicas,
// --jobs, --quiet and --csv apply only to such a campaign and are
// rejected without --sweep.
//
// Observability flags (both modes; they turn telemetry on):
//   --ledger PATH   write the run ledger (merged across replicas for a
//                   sweep) as JSONL to PATH
//   --report        fold the ledger through obs::analyze and print the
//                   recovery-timeline / cost-decomposition report
//   --metrics PFX   print registry series whose name starts with PFX as
//                   CSV (kind,name,labels,field,value)
//
// Discovery:
//   --list          print the named-campaign catalog plus every checked-in
//                   scenarios/*.scn file (compiled into the binary, so
//                   this works from any directory) with a one-line
//                   description
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/analyze.hpp"
#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"
#include "scenario/sweep.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

using namespace cmdare;

namespace {

/// Emits the requested observability artifacts from a run's (or merged
/// campaign's) telemetry bundle. Returns 0 on success.
int emit_observability(obs::Telemetry* telemetry, const std::string& ledger_path,
                       bool report, const std::string& metrics_prefix) {
  if (!telemetry) {
    std::fprintf(stderr, "error: no telemetry captured for this run\n");
    return 1;
  }
  if (!ledger_path.empty()) {
    std::ofstream out(ledger_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", ledger_path.c_str());
      return 1;
    }
    obs::write_ledger_jsonl(telemetry->ledger, out);
    std::printf("ledger (%zu events) written to %s\n",
                telemetry->ledger.size(), ledger_path.c_str());
  }
  if (report) {
    const obs::analyze::LedgerAnalysis analysis =
        obs::analyze::analyze_ledger(telemetry->ledger);
    obs::analyze::write_report(analysis, std::cout);
  }
  if (!metrics_prefix.empty()) {
    util::CsvWriter writer(std::cout);
    writer.write_row({"kind", "name", "labels", "field", "value"});
    for (const obs::SnapshotRow& row :
         telemetry->registry.snapshot(metrics_prefix)) {
      writer.write_row({row.kind, row.name, obs::format_labels(row.labels),
                        row.field, util::format_double(row.value, 6)});
    }
  }
  return 0;
}

/// First `# ...` comment line of a .scn file, as its catalog description.
std::string scn_description(std::string_view text) {
  for (const std::string& line : util::split(text, '\n')) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] != '#') break;  // spec body reached: no description
    const std::string_view description = util::trim(trimmed.substr(1));
    if (!description.empty()) return std::string(description);
  }
  return "";
}

/// `--list`: the named campaign/sweep catalog, then every checked-in
/// scenarios/*.scn.
int print_catalog_listing() {
  util::Table campaigns({"campaign", "cells", "replicas", "description"});
  for (const scenario::NamedScenarioSweep& s : scenario::named_sweeps()) {
    campaigns.add_row({s.name,
                       std::to_string(scenario::expand(s.sweep).size()),
                       std::to_string(s.sweep.replicas), s.description});
  }
  campaigns.set_title("Named campaigns (run with cmdare_campaign <name>):");
  campaigns.render(std::cout);

  util::Table scenarios({"file", "description"});
  for (const scenario::ScenarioFile& file : scenario::scenario_files()) {
    scenarios.add_row({"scenarios/" + std::string(file.stem) + ".scn",
                       scn_description(file.text)});
  }
  scenarios.set_title("Scenario files (run with scenario_runner <file>):");
  std::printf("\n");
  scenarios.render(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> sets;
  std::vector<std::string> sweeps;
  int replicas = 1;
  int jobs = 0;
  std::string seed_text;
  std::string csv_path;
  std::string ledger_path;
  bool report = false;
  std::string metrics_prefix;
  bool print_only = false;
  bool quiet = false;
  bool list = false;

  util::ArgParser args("scenario_runner",
                       "Run a declarative scenario (.scn) file.");
  args.add_positional("spec.scn", "scenario file to run", &path,
                      /*required=*/false);
  args.add_repeated("set", "key=value", "override one spec field", &sets);
  args.add_repeated("sweep", "key=v1,v2,...",
                    "sweep a spec field (turns the run into a campaign)",
                    &sweeps);
  args.add_int("replicas", "N", "campaign replicas per cell (default 1)",
               &replicas, 1);
  args.add_int("jobs", "N", "campaign worker threads (default 0: hardware)",
               &jobs, 0);
  args.add_value("seed", "S", "override the spec's seed", &seed_text);
  args.add_value("csv", "PATH", "write campaign aggregates to PATH",
                 &csv_path);
  args.add_value("ledger", "PATH", "write the run ledger as JSONL to PATH",
                 &ledger_path);
  args.add_flag("report", "print the ledger analysis report", &report);
  args.add_value("metrics", "PREFIX",
                 "print registry metrics matching PREFIX as CSV",
                 &metrics_prefix);
  args.add_flag("print", "print the canonical spec text and exit",
                &print_only);
  args.add_flag("quiet", "suppress the campaign progress line", &quiet);
  args.add_flag("list",
                "list named campaigns and checked-in scenario files, then exit",
                &list);

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
  if (list) return print_catalog_listing();
  if (path.empty()) {
    std::fprintf(stderr, "error: missing spec.scn (or pass --list)\n%s",
                 args.help_text().c_str());
    return 1;
  }
  for (const char* flag : {"replicas", "jobs", "quiet", "csv"}) {
    if (sweeps.empty() && args.given(flag)) {
      std::fprintf(stderr,
                   "error: --%s applies to a campaign and needs --sweep\n",
                   flag);
      return 1;
    }
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  scenario::ParseResult parsed = scenario::parse(buffer.str());
  if (!parsed.ok()) {
    for (const scenario::Diagnostic& d : parsed.diagnostics) {
      if (d.line > 0) {
        std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), d.line,
                     d.message.c_str());
      } else {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), d.message.c_str());
      }
    }
    return 1;
  }
  scenario::ScenarioSpec spec = parsed.spec;

  for (const std::string& set : sets) {
    const std::size_t eq = set.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "error: --set wants key=value, got \"%s\"\n",
                   set.c_str());
      return 1;
    }
    if (auto err = scenario::set_field(spec, set.substr(0, eq),
                                       set.substr(eq + 1))) {
      std::fprintf(stderr, "error: --set %s: %s\n", set.c_str(), err->c_str());
      return 1;
    }
  }
  if (!seed_text.empty()) {
    if (auto err = scenario::set_field(spec, "seed", seed_text)) {
      std::fprintf(stderr, "error: --seed %s: %s\n", seed_text.c_str(),
                   err->c_str());
      return 1;
    }
  }

  if (print_only) {
    std::fputs(scenario::serialize(spec).c_str(), stdout);
    return 0;
  }

  const bool wants_obs =
      !ledger_path.empty() || report || !metrics_prefix.empty();

  if (!sweeps.empty()) {
    scenario::ScenarioSweep sweep;
    sweep.name = spec.name;
    sweep.base = spec;
    sweep.replicas = replicas;
    sweep.seed = spec.seed;
    for (const std::string& axis_text : sweeps) {
      const std::size_t eq = axis_text.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr,
                     "error: --sweep wants key=v1,v2,..., got \"%s\"\n",
                     axis_text.c_str());
        return 1;
      }
      scenario::SweepAxis axis;
      axis.key = axis_text.substr(0, eq);
      axis.values = util::split(axis_text.substr(eq + 1), ',');
      sweep.axes.push_back(std::move(axis));
    }

    exp::RunOptions options;
    options.jobs = jobs;
    options.capture_telemetry = wants_obs;
    if (!quiet) {
      options.on_progress = [](const exp::Progress& p) {
        if (p.replicas_done % 16 == 0 || p.replicas_done == p.replicas_total) {
          std::fprintf(stderr, "\r%zu/%zu replicas (%zu failed)",
                       p.replicas_done, p.replicas_total, p.replicas_failed);
          if (p.replicas_done == p.replicas_total) std::fprintf(stderr, "\n");
        }
      };
    }

    scenario::ScenarioCampaignResult result;
    try {
      result = scenario::run_scenario_campaign(sweep, options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }

    util::Table table = result.summary_table();
    table.set_title("Scenario campaign \"" + sweep.name + "\" (seed " +
                    std::to_string(sweep.seed) + ", " +
                    std::to_string(sweep.replicas) + " replicas/cell):");
    table.render(std::cout);
    std::printf("\n%zu replicas over %zu cells in %s on %d thread(s)\n",
                result.progress.replicas_total, result.cells.size(),
                util::format_duration(result.wall_seconds).c_str(),
                result.jobs_used);
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
        return 1;
      }
      result.write_csv(out);
      std::printf("aggregates written to %s\n", csv_path.c_str());
    }
    if (wants_obs) {
      const int rc = emit_observability(result.telemetry.get(), ledger_path,
                                        report, metrics_prefix);
      if (rc != 0) return rc;
    }
    return 0;
  }

  std::optional<obs::ScopedTelemetry> telemetry;
  if (wants_obs) telemetry.emplace();
  try {
    scenario::SimHarness harness(spec);
    const scenario::ScenarioResult result = harness.run();
    util::Table table = result.table();
    table.set_title("Scenario \"" + spec.name + "\" (kind " +
                    scenario::harness_kind_name(spec.kind) + ", seed " +
                    std::to_string(spec.seed) + "):");
    table.render(std::cout);
    if (wants_obs) {
      const int rc = emit_observability(obs::telemetry(), ledger_path,
                                        report, metrics_prefix);
      if (rc != 0) return rc;
    }
    return result.finished ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
