// The "resilience" campaign: degradation curves under injected faults,
// byte-identical at any --jobs value.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scenario/catalog.hpp"

namespace cmdare::scenario {
namespace {

ScenarioSweep shrunk_sweep() {
  // The catalog sweep with a test-sized budget: 2 fault rates x 2
  // replicas, short runs.
  ScenarioSweep sweep = sweep_by_name("resilience").sweep;
  sweep.replicas = 2;
  sweep.axes = {{"fault_rate", {"0", "0.2"}}};
  sweep.base.max_steps = 200;
  sweep.base.checkpoint_interval_steps = 50;
  return sweep;
}

ScenarioCampaignResult run_shrunk(int jobs) {
  exp::RunOptions options;
  options.jobs = jobs;
  return run_scenario_campaign(shrunk_sweep(), options,
                               sweep_by_name("resilience").replica);
}

TEST(ResilienceCampaign, InCatalogWithFaultRateGrid) {
  const NamedScenarioSweep& campaign = sweep_by_name("resilience");
  ASSERT_EQ(campaign.sweep.axes.size(), 1u);
  EXPECT_EQ(campaign.sweep.axes[0].values.size(), 4u);
  const auto cells = expand(campaign.sweep);
  EXPECT_EQ(cells.size(), 4u);
  EXPECT_DOUBLE_EQ(cells.front().spec.faults.launch_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(cells.back().spec.faults.launch_error_rate, 0.2);
  // Cells are labelled by their axis setting.
  EXPECT_EQ(cells.front().label(), "fault_rate=0");
  EXPECT_EQ(cells.back().label(), "fault_rate=0.2");
}

TEST(ResilienceCampaign, CsvByteIdenticalAcrossJobCounts) {
  std::ostringstream csv_serial;
  run_shrunk(1).write_csv(csv_serial);
  std::ostringstream csv_parallel;
  run_shrunk(4).write_csv(csv_parallel);

  EXPECT_FALSE(csv_serial.str().empty());
  EXPECT_EQ(csv_serial.str(), csv_parallel.str());
  EXPECT_NE(csv_serial.str().find("fault_rate"), std::string::npos);
}

TEST(ResilienceCampaign, FaultyCellsDegradeGracefully) {
  const ScenarioCampaignResult result = run_shrunk(2);

  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.progress.replicas_failed, 0u);  // no replica threw

  const exp::CellAggregate& clean = result.aggregates[0];
  const exp::CellAggregate& faulty = result.aggregates[1];
  // Fault-free cells never retry; 20% cells must show resilience work
  // (the stockout window alone guarantees launch retries) and still
  // complete every replica within the horizon.
  EXPECT_DOUBLE_EQ(clean.metrics.at("launch_retries").running.mean(), 0.0);
  EXPECT_DOUBLE_EQ(clean.metrics.at("completed").running.mean(), 1.0);
  EXPECT_GT(faulty.metrics.at("launch_retries").running.mean(), 0.0);
  EXPECT_GT(faulty.metrics.at("faults_injected").running.mean(), 0.0);
  EXPECT_DOUBLE_EQ(faulty.metrics.at("completed").running.mean(), 1.0);
}

}  // namespace
}  // namespace cmdare::scenario
