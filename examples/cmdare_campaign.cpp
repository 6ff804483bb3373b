// cmdare_campaign: run a named Monte-Carlo campaign on the parallel
// experiment engine and print/export its streaming aggregates.
//
//   cmdare_campaign --list
//   cmdare_campaign lifetime
//   cmdare_campaign speed --jobs 4 --replicas 64 --csv speed.csv
//   cmdare_campaign lifetime --jobs 1 --csv a.csv   # byte-identical to
//   cmdare_campaign lifetime --jobs 8 --csv b.csv   # ... this one
//
// The aggregate CSV is deterministic for a given (spec, seed) at any
// --jobs value; wall-clock and the progress line are the only things
// that change with thread count.
//
// Long sweeps are crash-resumable: `--journal PATH` appends every
// completed replica to PATH (flushed, so a kill loses at most one torn
// trailing line), and re-running with `--resume` replays the journaled
// replicas and executes only the rest — the final CSV is byte-identical
// to an uninterrupted run at any --jobs.
//
// Exit status: 1 for a bad flag or campaign name, an exception, an
// unwritable output, or a failed replica (after the table and CSV are
// written); otherwise 0.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "scenario/catalog.hpp"
#include "scenario/sweep.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace cmdare;

namespace {

void print_catalog() {
  util::Table table({"name", "cells", "replicas", "description"});
  for (const scenario::NamedScenarioSweep& s : scenario::named_sweeps()) {
    table.add_row({s.name, std::to_string(scenario::expand(s.sweep).size()),
                   std::to_string(s.sweep.replicas), s.description});
  }
  table.set_title("Available campaigns:");
  table.render(std::cout);
}

exp::RunOptions make_options(int jobs, bool quiet,
                             const std::string& journal_path, bool resume) {
  exp::RunOptions options;
  options.jobs = jobs;
  options.journal_path = journal_path;
  options.resume = resume;
  if (!quiet) {
    options.on_progress = [](const exp::Progress& p) {
      // Serialized by the engine; one carriage-return line.
      if (p.replicas_done % 16 == 0 || p.replicas_done == p.replicas_total) {
        std::fprintf(stderr, "\r%zu/%zu replicas (%zu/%zu cells, %zu failed)",
                     p.replicas_done, p.replicas_total, p.cells_done,
                     p.cells_total, p.replicas_failed);
        if (p.replicas_done == p.replicas_total) std::fprintf(stderr, "\n");
      }
    };
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  bool list = false;
  bool quiet = false;
  int jobs = 0;
  int replicas = 0;
  std::uint64_t seed = 0;
  std::string csv_path;
  std::string journal_path;
  bool resume = false;

  util::ArgParser args("cmdare_campaign",
                       "Run a named Monte-Carlo campaign from the catalog.");
  args.add_positional("name", "campaign to run (see --list)", &name,
                      /*required=*/false);
  args.add_flag("list", "print the campaign catalog and exit", &list);
  args.add_int("jobs", "N",
               "worker threads (default 0: hardware concurrency; 1 = serial)",
               &jobs, 0);
  args.add_int("replicas", "N", "replicas per cell (default: the spec's)",
               &replicas, 1);
  args.add_uint64("seed", "S", "campaign seed (default: the spec's)",
                  &seed);
  args.add_value("csv", "PATH", "write the aggregate CSV to PATH", &csv_path);
  args.add_value("journal", "PATH",
                 "append every completed replica to PATH (crash journal)",
                 &journal_path);
  args.add_flag("resume",
                "replay the --journal file and run only the missing replicas",
                &resume);
  args.add_flag("quiet", "suppress the progress line", &quiet);

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
  if (list || name == "-l") {
    print_catalog();
    return 0;
  }
  if (name.empty()) {
    std::fputs(args.help_text().c_str(), stdout);
    std::printf("\n");
    print_catalog();
    return 1;
  }
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "error: --resume needs --journal PATH\n");
    return 1;
  }

  scenario::NamedScenarioSweep named;
  try {
    named = scenario::sweep_by_name(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    print_catalog();
    return 1;
  }
  scenario::ScenarioSweep& sweep = named.sweep;
  if (replicas > 0) sweep.replicas = replicas;
  // Without --seed each campaign keeps its spec's seed.
  if (args.given("seed")) sweep.seed = seed;

  scenario::ScenarioCampaignResult result;
  try {
    result = scenario::run_scenario_campaign(
        sweep, make_options(jobs, quiet, journal_path, resume),
        named.replica);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  util::Table table = result.summary_table();
  table.set_title("Campaign \"" + sweep.name + "\" (seed " +
                  std::to_string(sweep.seed) + ", " +
                  std::to_string(sweep.replicas) + " replicas/cell):");
  table.render(std::cout);
  std::printf("\n%zu replicas over %zu cells in %s on %d thread(s)",
              result.progress.replicas_total, result.progress.cells_total,
              util::format_duration(result.wall_seconds).c_str(),
              result.jobs_used);
  if (result.progress.replicas_failed > 0) {
    std::printf(" — %zu FAILED", result.progress.replicas_failed);
  }
  std::printf("\n");

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
      return 1;
    }
    result.write_csv(out);
    std::printf("aggregates written to %s\n", csv_path.c_str());
  }
  return result.progress.replicas_failed > 0 ? 1 : 0;
}
