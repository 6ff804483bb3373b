// Figure 10: worker replacement overhead — cold start (newly requested
// GPU server: environment setup + dataset download + framework +
// graph) vs warm start (existing server: framework + graph) for the four
// canonical models.
//
// The model dimension is a generic scenario sweep (axis "model" over the
// canonical zoo); each replica draws a batch of cold/warm samples from
// its private stream, so the table is identical at any thread count.
#include "bench_common.hpp"

#include "scenario/sweep.hpp"
#include "train/replacement.hpp"

using namespace cmdare;

void bench::fig10() {
  scenario::ScenarioSweep sweep;
  sweep.name = "fig10";
  sweep.base.kind = scenario::HarnessKind::kSession;
  sweep.base.workers = {
      {1, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  scenario::SweepAxis models;
  models.key = "model";
  for (const nn::CnnModel& model : nn::canonical_models()) {
    models.values.push_back(model.name());
  }
  sweep.axes = {models};
  sweep.replicas = 50;
  sweep.seed = 10;

  // No simulation needed: each replica just samples the replacement-cost
  // model for its cell's CNN — 10 cold and 10 warm draws per replica.
  const scenario::ScenarioReplicaFn replica =
      [](const scenario::ScenarioCell& cell, int, util::Rng& rng,
         obs::Telemetry*) {
        const nn::CnnModel model = nn::model_by_name(cell.spec.model);
        exp::ReplicaResult result;
        for (int i = 0; i < 10; ++i) {
          result.observe("cold_s",
                         train::sample_cold_replacement_seconds(model, rng));
          result.observe("warm_s",
                         train::sample_warm_replacement_seconds(model, rng));
        }
        return result;
      };

  const scenario::ScenarioCampaignResult result =
      scenario::run_scenario_campaign(sweep, exp::RunOptions{}, replica);

  util::Table table({"model", "cold start (s)", "warm start (s)",
                     "graph setup (s)", "paper (ResNet-15)"});
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const std::string& name = result.cells[c].spec.model;
    const exp::MetricAggregate& cold = result.aggregates[c].metrics.at("cold_s");
    const exp::MetricAggregate& warm = result.aggregates[c].metrics.at("warm_s");
    table.add_row(
        {name,
         util::format_mean_sd(cold.running.mean(), cold.running.stddev(), 1),
         util::format_mean_sd(warm.running.mean(), warm.running.stddev(), 1),
         util::format_double(
             cloud::graph_setup_seconds(nn::model_by_name(name)), 1),
         name == "resnet-15" ? "75.6 / 14.8" : ""});
  }
  table.render(std::cout);

  bench::print_note(
      "cold starts cost ~60 s more than warm starts (VM environment setup "
      "+ dataset download); both grow with model size, dominated by the "
      "training-graph setup (Shake-Shake Big ~15 s above ResNet-15).");
}
