// SimHarness golden tests: the scenario layer must reproduce the
// hand-wired pre-refactor experiments bit-for-bit. The constants and CSV
// bodies below were captured from the repo BEFORE the scenario layer
// existed (examples/resilience.cpp at seed 2020; shrunk "resilience" and
// "speed" campaigns through the original cmdare::core replicas), so any
// drift in RNG fork labels, construction order, or observation order
// fails these tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/ledger.hpp"
#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::scenario {
namespace {

/// The resilience demo's scenario (scenarios/resilience.scn): 20% uniform
/// faults plus a one-hour K80 stockout in us-central1, three transient
/// K80 workers, 2000 steps, checkpoint every 200.
ScenarioSpec resilience_demo_spec() {
  return checked_in_scenario("resilience");
}

TEST(SimHarness, ReproducesPreRefactorResilienceDemoAtSeed2020) {
  SimHarness harness(resilience_demo_spec());
  const ScenarioResult result = harness.run();

  // Golden values captured from the pre-scenario-layer example binary.
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.completed_steps, 2000);
  EXPECT_DOUBLE_EQ(result.elapsed_seconds, 279.17601694722356);
  EXPECT_DOUBLE_EQ(result.cost_usd, 0.03357100669575535);
  EXPECT_EQ(result.launch_retries, 6);
  EXPECT_EQ(result.fallbacks, 3);
  EXPECT_EQ(result.slots_abandoned, 0);
  EXPECT_EQ(result.revocations, 0);
  EXPECT_EQ(result.abrupt_kills, 0);
  EXPECT_EQ(result.notices, 0);
  EXPECT_EQ(result.replacements, 0);
  EXPECT_EQ(result.checkpoint_blobs, 8u);
  EXPECT_EQ(result.faults_injected, 11u);
}

TEST(SimHarness, SupervisionKeysUnsetPreserveSeed2020Goldens) {
  // Route the seed-2020 spec through the text codec — which now carries
  // every supervise.* key at its default — and through a control plane
  // that links the supervision layer. With supervise.enabled unset the
  // supervisor must not exist, no extra events may be scheduled, and the
  // run must reproduce the pre-supervision goldens bit-for-bit.
  const ParseResult parsed = parse(serialize(resilience_demo_spec()));
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed.spec.supervision.enabled);
  ASSERT_EQ(parsed.spec, resilience_demo_spec());

  SimHarness harness(parsed.spec);
  const ScenarioResult result = harness.run();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.completed_steps, 2000);
  EXPECT_DOUBLE_EQ(result.elapsed_seconds, 279.17601694722356);
  EXPECT_DOUBLE_EQ(result.cost_usd, 0.03357100669575535);
  EXPECT_EQ(result.launch_retries, 6);
  EXPECT_EQ(result.fallbacks, 3);
  EXPECT_EQ(result.checkpoint_blobs, 8u);
  EXPECT_EQ(result.faults_injected, 11u);
  // The supervision counters stay inert and no supervisor was built.
  EXPECT_EQ(result.detections, 0);
  EXPECT_EQ(result.false_detections, 0);
  EXPECT_EQ(result.interval_retunes, 0);
  EXPECT_EQ(result.fenced_workers, 0);
  EXPECT_EQ(result.hedges_cancelled, 0);
  EXPECT_DOUBLE_EQ(result.mean_recovery_seconds, 0.0);
  EXPECT_EQ(harness.training_run()->supervisor(), nullptr);
}

TEST(SimHarness, StormElasticKeysUnsetPreserveSeed2020Goldens) {
  // Same contract for the storm/elastic layer: the codec now carries
  // every supervise.elastic.* key at its default and emits no storms
  // line for a storm-free plan, and a control plane that links the
  // breaker and elastic policy must not disturb a run that leaves them
  // off. The seed-2020 goldens stay bit-identical.
  const std::string text = serialize(resilience_demo_spec());
  EXPECT_EQ(text.find("storms"), std::string::npos);
  EXPECT_NE(text.find("supervise.elastic.enabled = false"),
            std::string::npos);
  const ParseResult parsed = parse(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed.spec.supervision.elastic.enabled);
  ASSERT_TRUE(parsed.spec.faults.storms.empty());
  ASSERT_EQ(parsed.spec, resilience_demo_spec());

  SimHarness harness(parsed.spec);
  const ScenarioResult result = harness.run();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.completed_steps, 2000);
  EXPECT_DOUBLE_EQ(result.elapsed_seconds, 279.17601694722356);
  EXPECT_DOUBLE_EQ(result.cost_usd, 0.03357100669575535);
  EXPECT_EQ(result.launch_retries, 6);
  EXPECT_EQ(result.fallbacks, 3);
  EXPECT_EQ(result.checkpoint_blobs, 8u);
  EXPECT_EQ(result.faults_injected, 11u);
  // The storm/elastic counters stay inert.
  EXPECT_EQ(result.elastic_shrinks, 0);
  EXPECT_EQ(result.elastic_grows, 0);
  EXPECT_EQ(result.breaker_transitions, 0);
  EXPECT_EQ(result.breaker_opens, 0);
  EXPECT_EQ(result.outage_revocations, 0u);
  EXPECT_EQ(result.outage_denials, 0u);
}

TEST(SimHarness, RefusesToRunTwice) {
  SimHarness harness(resilience_demo_spec());
  const ScenarioResult result = harness.run();
  EXPECT_THROW(harness.run(), std::logic_error);
  EXPECT_TRUE(result.finished);
}

TEST(SimHarness, RecordsIntoTheCallersTelemetry) {
  obs::ScopedTelemetry telemetry;
  SimHarness harness(resilience_demo_spec());
  harness.run();
  // The harness owns no bundle: the run's fault counters land in the one
  // its caller installed.
  EXPECT_FALSE(
      telemetry->registry.snapshot(std::string_view("faults.")).empty());
}

TEST(SimHarness, RejectsInvalidSpec) {
  ScenarioSpec spec = resilience_demo_spec();
  spec.model = "no-such-model";
  EXPECT_THROW(SimHarness{spec}, std::invalid_argument);
}

TEST(SimHarness, SessionKindRunsABareTrainingSession) {
  ScenarioSpec spec;
  spec.kind = HarnessKind::kSession;
  spec.seed = 5;
  spec.workers = {{2, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  spec.max_steps = 50;
  SimHarness harness(spec);
  const ScenarioResult result = harness.run();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.completed_steps, 50);
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_EQ(result.revocations, 0);
  ASSERT_NE(harness.session(), nullptr);
  EXPECT_EQ(harness.session()->global_step(), 50);
}

TEST(SimHarness, SyncKindRunsTheBarrierBaseline) {
  ScenarioSpec spec;
  spec.kind = HarnessKind::kSync;
  spec.seed = 6;
  spec.workers = {{2, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  spec.max_steps = 20;
  SimHarness harness(spec);
  const ScenarioResult result = harness.run();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.completed_steps, 20);
  ASSERT_NE(harness.sync_session(), nullptr);
}

TEST(SimHarness, CloudKindExposesACallerDrivenProvider) {
  ScenarioSpec spec;
  spec.kind = HarnessKind::kCloud;
  spec.seed = 7;
  spec.max_steps = 0;
  spec.horizon_hours = 48.0;
  SimHarness harness(spec);
  harness.provider().request_instance(
      {cloud::GpuType::kK80, cloud::Region::kEuropeWest1, true});
  const ScenarioResult result = harness.run();
  // europe-west1 K80s rarely survive 24 h (Fig. 8); at this seed the
  // instance is revoked (or expired) well inside the horizon.
  EXPECT_EQ(harness.provider().instance_count(), 1u);
  EXPECT_GT(result.cost_usd, 0.0);
}

// --- result table pins ------------------------------------------------

// table() as scenario_runner printed it before the table became a
// visitor over the result list, one run per section shape: ungrouped
// rows only, elastic + outage, outage + ckpt, and fleet.

std::string table_text(const ScenarioSpec& spec) {
  SimHarness harness(spec);
  return harness.run().table().to_string();
}

constexpr const char* kDemoTable = &R"TABLE(
+------------------------+--------+
| field                  |  value |
+------------------------+--------+
| finished               |   true |
| completed_steps        |   2000 |
| elapsed                | 4m 39s |
| cost_usd               | 0.0336 |
| revocations            |      0 |
| replacements           |      0 |
| restarts               |      0 |
| launch_retries         |      6 |
| fallbacks              |      3 |
| slots_abandoned        |      0 |
| notices                |      0 |
| abrupt_kills           |      0 |
| checkpoint_blobs       |      8 |
| last_checkpoint_step   |   1602 |
| faults_injected        |     11 |
| detections             |      0 |
| false_detections       |      0 |
| detection_latency_p50  |   0.00 |
| detection_latency_p99  |   0.00 |
| detection_latency_mean |   0.00 |
| interval_retunes       |      0 |
| fenced_workers         |      0 |
| hedges_cancelled       |      0 |
| mean_recovery_seconds  |   0.00 |
+------------------------+--------+
)TABLE"[1];

TEST(ScenarioResult, TablePinsTheUngroupedRowsOfTheSeed2020Demo) {
  EXPECT_EQ(table_text(resilience_demo_spec()), kDemoTable);
}

/// The elastic run of StormScenario.ElasticRunShrinksAndRegrows.
ScenarioSpec elastic_storm_spec() {
  ScenarioSpec spec = checked_in_scenario("storm");
  spec.max_steps = 120000;
  spec.checkpoint_interval_steps = 4000;
  spec.horizon_hours = 6.0;
  spec.faults.storms[0].start_s = 1200.0;
  spec.faults.storms[0].end_s = 3600.0;
  spec.faults.storms[0].kill_fraction = 1.0;
  spec.supervision.elastic.enabled = true;
  return spec;
}

constexpr const char* kElasticStormTable = &R"TABLE(
+------------------------+------------+
| field                  |      value |
+------------------------+------------+
| finished               |       true |
| completed_steps        |     120000 |
| elapsed                | 3h 37m 47s |
| cost_usd               |     1.1920 |
| revocations            |          5 |
| replacements           |          5 |
| restarts               |          0 |
| launch_retries         |         11 |
| fallbacks              |          0 |
| slots_abandoned        |          1 |
| notices                |          1 |
| abrupt_kills           |          4 |
| checkpoint_blobs       |         29 |
| last_checkpoint_step   |     116002 |
| faults_injected        |          4 |
| detections             |          4 |
| false_detections       |          0 |
| detection_latency_p50  |     113.15 |
| detection_latency_p99  |     143.15 |
| detection_latency_mean |     120.65 |
| interval_retunes       |          0 |
| fenced_workers         |          0 |
| hedges_cancelled       |          0 |
| mean_recovery_seconds  |     155.77 |
| elastic_shrinks        |          3 |
| elastic_grows          |          3 |
| breaker_transitions    |          3 |
| breaker_opens          |          1 |
| outage_revocations     |          4 |
| outage_denials         |         15 |
+------------------------+------------+
)TABLE"[1];

TEST(ScenarioResult, TablePinsTheElasticAndOutageSectionsOfAStormRun) {
  EXPECT_EQ(table_text(elastic_storm_spec()), kElasticStormTable);
}

/// The ckpt sweep's base spec shrunk as ckpt_test shrinks it.
ScenarioSpec shrunk_ckpt_spec() {
  ScenarioSpec spec = checked_in_scenario("ckpt_tiers");
  spec.max_steps = 100000;
  spec.checkpoint_interval_steps = 4000;
  spec.horizon_hours = 6.0;
  spec.faults.storms[0].start_s = 1800.0;
  spec.faults.storms[0].end_s = 3600.0;
  spec.faults.tier_outages[0].start_s = 3600.0;
  spec.faults.tier_outages[0].end_s = 5400.0;
  return spec;
}

constexpr const char* kCkptTable = &R"TABLE(
+------------------------+------------+
| field                  |      value |
+------------------------+------------+
| finished               |       true |
| completed_steps        |     100000 |
| elapsed                | 1h 06m 05s |
| cost_usd               |     0.6348 |
| revocations            |          3 |
| replacements           |          3 |
| restarts               |          0 |
| launch_retries         |          6 |
| fallbacks              |          3 |
| slots_abandoned        |          0 |
| notices                |          0 |
| abrupt_kills           |          3 |
| checkpoint_blobs       |         24 |
| last_checkpoint_step   |      96000 |
| faults_injected        |          9 |
| detections             |          0 |
| false_detections       |          0 |
| detection_latency_p50  |       0.00 |
| detection_latency_p99  |       0.00 |
| detection_latency_mean |       0.00 |
| interval_retunes       |          0 |
| fenced_workers         |          0 |
| hedges_cancelled       |          0 |
| mean_recovery_seconds  |       0.00 |
| outage_revocations     |          3 |
| outage_denials         |          6 |
| ckpt_base_writes       |          5 |
| ckpt_delta_writes      |         19 |
| ckpt_compactions       |          4 |
| ckpt_quarantines       |          0 |
| ckpt_verified_restores |          3 |
| ckpt_cold_restarts     |          0 |
| ckpt_tier_cost_usd     |     0.0005 |
+------------------------+------------+
)TABLE"[1];

TEST(ScenarioResult, TablePinsTheOutageAndCkptSectionsOfACkptRun) {
  EXPECT_EQ(table_text(shrunk_ckpt_spec()), kCkptTable);
}

constexpr const char* kFleetTable = &R"TABLE(
+------------------------+------------+
| field                  |      value |
+------------------------+------------+
| finished               |       true |
| completed_steps        |     164476 |
| elapsed                | 6h 00m 00s |
| cost_usd               |     6.1176 |
| revocations            |          5 |
| replacements           |          0 |
| restarts               |          0 |
| launch_retries         |          0 |
| fallbacks              |          0 |
| slots_abandoned        |          0 |
| notices                |          0 |
| abrupt_kills           |          0 |
| checkpoint_blobs       |          0 |
| last_checkpoint_step   |          0 |
| faults_injected        |          0 |
| detections             |          0 |
| false_detections       |          0 |
| detection_latency_p50  |       0.00 |
| detection_latency_p99  |       0.00 |
| detection_latency_mean |       0.00 |
| interval_retunes       |          0 |
| fenced_workers         |          0 |
| hedges_cancelled       |          0 |
| mean_recovery_seconds  |       0.00 |
| tenants                |         32 |
| tenants_finished       |         32 |
| deadline_hit_rate      |      1.000 |
| placements             |         38 |
| evictions_reclaim      |          0 |
| evictions_priceout     |          5 |
| migrations             |          1 |
| usd_per_kstep          |     0.0372 |
+------------------------+------------+
)TABLE"[1];

TEST(ScenarioResult, TablePinsTheFleetSectionOfASmallFleet) {
  ScenarioSpec spec = checked_in_scenario("fleet");
  spec.fleet.tenants = 32;
  spec.fleet.min_steps = 2000;
  spec.fleet.max_steps = 8000;
  spec.fleet.checkpoint_interval_steps = 200;
  spec.horizon_hours = 6.0;
  EXPECT_EQ(table_text(spec), kFleetTable);
}

TEST(ScenarioResult, RowsNameEveryFieldOnceWithFlagsAsZeroOrOne) {
  SimHarness harness(resilience_demo_spec());
  const std::vector<ResultRow> rows = harness.run().rows();
  std::set<std::string_view> names;
  for (const ResultRow& row : rows) {
    EXPECT_TRUE(names.insert(row.first).second) << "duplicate " << row.first;
  }
  EXPECT_EQ(rows.size(), 45u);
  EXPECT_EQ(rows[0], ResultRow("finished", 1.0));
  EXPECT_EQ(rows[1], ResultRow("completed_steps", 2000.0));
  // Inactive sections are read too: a run has no tenants, and its
  // usd_per_kstep is its billed cost per thousand completed steps.
  EXPECT_EQ(rows.back().first, "usd_per_kstep");
  EXPECT_DOUBLE_EQ(rows.back().second, 1000.0 * 0.03357100669575535 / 2000.0);
}

// --- campaign byte-identity against pre-refactor golden CSVs ----------

// Every column from `metric` on was captured before the scenario layer
// existed; the cell-prefix columns are the sweep's axis values.

constexpr const char* kResilienceGoldenCsv =
    "campaign,cell,fault_rate,"
    "metric,replicas_ok,replicas_failed,count,mean,sd,cov,min,p10,p50,p90,"
    "max\n"
    "resilience,0,0,abrupt_kills,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,0,0,checkpoints,2,0,2,3.000000,0.000000,0.000000,3.000000,3.000000,3.000000,3.000000,3.000000\n"
    "resilience,0,0,completed,2,0,2,1.000000,0.000000,0.000000,1.000000,1.000000,1.000000,1.000000,1.000000\n"
    "resilience,0,0,cost_usd,2,0,2,0.016091,0.000343,0.021322,0.015848,0.015897,0.016091,0.016285,0.016334\n"
    "resilience,0,0,fallbacks,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,0,0,faults_injected,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,0,0,launch_retries,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,0,0,makespan_s,2,0,2,171.766649,3.422155,0.019923,169.346819,169.830785,171.766649,173.702512,174.186478\n"
    "resilience,0,0,revocations,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,0,0,slots_abandoned,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,1,0.2,abrupt_kills,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,1,0.2,checkpoints,2,0,2,3.000000,0.000000,0.000000,3.000000,3.000000,3.000000,3.000000,3.000000\n"
    "resilience,1,0.2,completed,2,0,2,1.000000,0.000000,0.000000,1.000000,1.000000,1.000000,1.000000,1.000000\n"
    "resilience,1,0.2,cost_usd,2,0,2,0.015807,0.000176,0.011161,0.015683,0.015708,0.015807,0.015907,0.015932\n"
    "resilience,1,0.2,fallbacks,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,1,0.2,faults_injected,2,0,2,2.000000,1.414214,0.707107,1.000000,1.200000,2.000000,2.800000,3.000000\n"
    "resilience,1,0.2,launch_retries,2,0,2,0.500000,0.707107,1.414214,0.000000,0.100000,0.500000,0.900000,1.000000\n"
    "resilience,1,0.2,makespan_s,2,0,2,170.372009,2.965156,0.017404,168.275328,168.694664,170.372009,172.049355,172.468691\n"
    "resilience,1,0.2,revocations,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    "resilience,1,0.2,slots_abandoned,2,0,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n";

constexpr const char* kSpeedGoldenCsv =
    "campaign,cell,workers,"
    "metric,replicas_ok,replicas_failed,count,mean,sd,cov,min,p10,p50,p90,"
    "max\n"
    "speed,0,1 x K80 @ us-central1,step_ms,2,0,2,106.661230,0.608365,0.005704,106.231051,106.317086,106.661230,107.005373,107.091409\n"
    "speed,0,1 x K80 @ us-central1,steps_per_s,2,0,2,9.371635,0.051786,0.005526,9.335017,9.342340,9.371635,9.400930,9.408253\n"
    "speed,1,4 x K80 @ us-central1,step_ms,2,0,1,109.369569,0.000000,0.000000,109.369569,109.369569,109.369569,109.369569,109.369569\n"
    "speed,1,4 x K80 @ us-central1,steps_per_s,2,0,2,29.501167,0.062684,0.002125,29.456843,29.465708,29.501167,29.536627,29.545492\n";

std::string campaign_csv(const char* name, const ScenarioSweep& sweep,
                         int jobs) {
  exp::RunOptions options;
  options.jobs = jobs;
  std::ostringstream out;
  run_scenario_campaign(sweep, options, sweep_by_name(name).replica)
      .write_csv(out);
  return out.str();
}

TEST(ScenarioCatalog, ResilienceCampaignMatchesPreRefactorCsvAtAnyJobs) {
  ScenarioSweep sweep = sweep_by_name("resilience").sweep;
  sweep.replicas = 2;
  sweep.axes = {{"fault_rate", {"0", "0.2"}}};
  sweep.base.max_steps = 200;
  sweep.base.checkpoint_interval_steps = 50;
  EXPECT_EQ(campaign_csv("resilience", sweep, 1), kResilienceGoldenCsv);
  EXPECT_EQ(campaign_csv("resilience", sweep, 4), kResilienceGoldenCsv);
}

TEST(ScenarioCatalog, SpeedCampaignMatchesPreRefactorCsvAtAnyJobs) {
  ScenarioSweep sweep = sweep_by_name("speed").sweep;
  sweep.replicas = 2;
  sweep.axes = {
      {"workers", {"1 x K80 @ us-central1", "4 x K80 @ us-central1"}}};
  sweep.base.max_steps = 300;
  EXPECT_EQ(campaign_csv("speed", sweep, 1), kSpeedGoldenCsv);
  EXPECT_EQ(campaign_csv("speed", sweep, 4), kSpeedGoldenCsv);
}

TEST(ScenarioCatalog, EverySweepExpandsToRoundTrippingCells) {
  std::set<std::string> names;
  std::size_t cells = 0;
  for (const NamedScenarioSweep& named : named_sweeps()) {
    EXPECT_TRUE(names.insert(named.name).second) << "duplicate " << named.name;
    EXPECT_EQ(named.name, named.sweep.name);
    std::vector<ScenarioCell> expanded;
    ASSERT_NO_THROW(expanded = expand(named.sweep)) << named.name;
    for (const ScenarioCell& cell : expanded) {
      const ParseResult parsed = parse(serialize(cell.spec));
      EXPECT_TRUE(parsed.ok()) << named.name << " " << cell.label();
      EXPECT_EQ(parsed.spec, cell.spec) << named.name << " " << cell.label();
    }
    cells += expanded.size();
  }
  EXPECT_EQ(names.size(), 8u);
  EXPECT_EQ(cells, 170u);
}

/// A catalog cell cut to test size: step budgets, checkpoint intervals,
/// horizons and fleets capped as the shrunk-sweep tests cap them, and
/// storm bursts moved inside the capped horizon.
ScenarioSpec test_sized(ScenarioSpec spec) {
  spec.max_steps = std::min(spec.max_steps, 20000L);
  spec.checkpoint_interval_steps =
      std::min(spec.checkpoint_interval_steps, 2000L);
  spec.horizon_hours = std::min(spec.horizon_hours, 1.0);
  for (faults::OutageStorm& storm : spec.faults.storms) {
    storm.start_s = 300.0;
    storm.end_s = 900.0;
  }
  spec.fleet.tenants = std::min(spec.fleet.tenants, 16);
  spec.fleet.min_steps = std::min(spec.fleet.min_steps, 2000L);
  spec.fleet.max_steps = std::min(spec.fleet.max_steps, 8000L);
  spec.fleet.checkpoint_interval_steps =
      std::min(spec.fleet.checkpoint_interval_steps, 200L);
  return spec;
}

TEST(ScenarioCatalog, TelemetryNeverChangesAResult) {
  std::size_t events = 0;
  for (const NamedScenarioSweep& named : named_sweeps()) {
    const std::vector<ScenarioCell> cells = expand(named.sweep);
    for (const ScenarioCell* cell : {&cells.front(), &cells.back()}) {
      const ScenarioSpec spec = test_sized(cell->spec);
      const util::Rng root = util::Rng(named.sweep.seed).fork(cell->index);
      SimHarness plain(spec, root);
      const std::vector<ResultRow> expected = plain.run().rows();
      obs::ScopedTelemetry telemetry;
      SimHarness traced(spec, root);
      EXPECT_EQ(traced.run().rows(), expected)
          << named.name << " " << cell->label();
      events += telemetry->ledger.size();
    }
  }
  // The traced runs did record: the comparison is not between two
  // untraced runs.
  EXPECT_GT(events, 0u);
}

TEST(ScenarioCampaign, SweepCsvByteIdenticalAcrossJobCounts) {
  ScenarioSweep sweep;
  sweep.name = "sweep-identity";
  sweep.base.kind = HarnessKind::kSession;
  sweep.base.workers = {
      {1, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  sweep.base.max_steps = 40;
  sweep.axes = {{"max_steps", {"40", "80"}},
                {"model", {"resnet-15", "resnet-32"}}};
  sweep.replicas = 2;
  sweep.seed = 31;

  const auto csv_at = [&](int jobs) {
    exp::RunOptions options;
    options.jobs = jobs;
    std::ostringstream out;
    run_scenario_campaign(sweep, options).write_csv(out);
    return out.str();
  };
  const std::string serial = csv_at(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, csv_at(4));
  // Axis values appear as CSV columns.
  EXPECT_NE(serial.find("max_steps"), std::string::npos);
  EXPECT_NE(serial.find("resnet-32"), std::string::npos);
}

TEST(ScenarioCampaign, RecordsSummaryMetricsIntoCallersRegistry) {
  obs::ScopedTelemetry telemetry;
  ScenarioSweep sweep;
  sweep.name = "summary";
  sweep.base.kind = HarnessKind::kSession;
  sweep.base.workers = {
      {1, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  sweep.base.max_steps = 20;
  sweep.axes = {{"max_steps", {"20", "40"}}};
  sweep.replicas = 3;
  exp::RunOptions options;
  options.jobs = 2;
  (void)run_scenario_campaign(sweep, options);
  const obs::LabelSet labels = {{"campaign", "summary"}};
  const auto counter = [&](const char* name) {
    return telemetry->registry.counter(name, labels).value();
  };
  EXPECT_DOUBLE_EQ(counter("scenario.campaign.replicas_total"), 6.0);
  EXPECT_DOUBLE_EQ(counter("scenario.campaign.replicas_failed"), 0.0);
  EXPECT_DOUBLE_EQ(counter("scenario.campaign.cells_total"), 2.0);
}

TEST(ScenarioCampaign, DefaultReplicaReportsStandardMetrics) {
  ScenarioSweep sweep;
  sweep.name = "default-replica";
  sweep.base = resilience_demo_spec();
  sweep.base.max_steps = 200;
  sweep.base.checkpoint_interval_steps = 50;
  sweep.replicas = 2;
  sweep.seed = 12;

  const ScenarioCampaignResult result = run_scenario_campaign(sweep);
  ASSERT_EQ(result.cells.size(), 1u);
  const exp::CellAggregate& agg = result.aggregates[0];
  EXPECT_EQ(agg.replicas_failed, 0);
  for (const char* metric :
       {"finished", "steps", "makespan_s", "cost_usd", "revocations",
        "launch_retries", "checkpoints", "faults_injected"}) {
    EXPECT_TRUE(agg.metrics.count(metric)) << metric;
  }
  EXPECT_DOUBLE_EQ(agg.metrics.at("finished").running.mean(), 1.0);
}

TEST(ScenarioCampaign, ResultReplicaRejectsUnknownRowsWhenBuilt) {
  EXPECT_NO_THROW(result_replica(
      {{"steps", "completed_steps"}, {"cost_usd"},
       {"usd_per_kstep", "usd_per_kstep", "completed_steps"}}));
  // A misspelt row, a metric whose own name is no row, and a bad gate.
  EXPECT_THROW(result_replica({{"steps", "completed_step"}}),
               std::invalid_argument);
  EXPECT_THROW(result_replica({{"steps"}}), std::invalid_argument);
  EXPECT_THROW(result_replica({{"ttr_s", "mean_recovery_seconds", "ttr"}}),
               std::invalid_argument);
}

// --- golden run ledger (seed 2020, shrunk resilience sweep) -----------

// Captured from the campaign below at jobs=1 when the ledger layer was
// introduced. Byte-identity across job counts is the determinism
// contract of obs::Ledger + exp::run_grid's ordered fold; any drift in
// emission sites, event ordering, serialization, or merge prefixes
// fails this pin.
constexpr const char* kGoldenLedgerJsonl = &R"LEDGER(
{"at":0,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":0,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":0,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":1,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":0,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":2,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":2,"kind":"launch_failed","source":"cell0/replica0/cloud","instance":0,"detail":{"reason":"stockout"}}
{"at":2,"kind":"launch_failed","source":"cell0/replica0/cloud","instance":1,"detail":{"reason":"stockout"}}
{"at":2,"kind":"launch_failed","source":"cell0/replica0/cloud","instance":2,"detail":{"reason":"stockout"}}
{"at":5.20879349220081,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":3,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":5.238215251214538,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":4,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":6.9864206857896125,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":5,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":7.20879349220081,"kind":"launch_failed","source":"cell0/replica0/cloud","instance":3,"detail":{"reason":"stockout"}}
{"at":7.20879349220081,"kind":"fallback","source":"cell0/replica0/run","instance":3,"detail":{"stage":"region"}}
{"at":7.238215251214538,"kind":"launch_failed","source":"cell0/replica0/cloud","instance":4,"detail":{"reason":"stockout"}}
{"at":7.238215251214538,"kind":"fallback","source":"cell0/replica0/run","instance":4,"detail":{"stage":"region"}}
{"at":8.986420685789613,"kind":"launch_failed","source":"cell0/replica0/cloud","instance":5,"detail":{"reason":"stockout"}}
{"at":8.986420685789613,"kind":"fallback","source":"cell0/replica0/run","instance":5,"detail":{"stage":"region"}}
{"at":15.735197120732833,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":6,"detail":{"gpu":"K80","region":"us-east1","transient":"true"}}
{"at":16.238606043504525,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":7,"detail":{"gpu":"K80","region":"us-east1","transient":"true"}}
{"at":17.444231562578086,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":8,"detail":{"gpu":"K80","region":"us-east1","transient":"true"}}
{"at":96.75306095854029,"kind":"launch_running","source":"cell0/replica0/cloud","instance":6,"seconds":81.01786383780745,"detail":{"gpu":"K80","region":"us-east1"}}
{"at":96.75306095854029,"kind":"assign","source":"cell0/replica0/run","instance":6,"worker":0,"seconds":82.71179948257061}
{"at":100.7593479233055,"kind":"launch_running","source":"cell0/replica0/cloud","instance":8,"seconds":83.31511636072742,"detail":{"gpu":"K80","region":"us-east1"}}
{"at":100.7593479233055,"kind":"assign","source":"cell0/replica0/run","instance":8,"worker":1,"seconds":70.85269007405456}
{"at":113.8653454068315,"kind":"launch_running","source":"cell0/replica0/cloud","instance":7,"seconds":97.62673936332696,"detail":{"gpu":"K80","region":"us-east1"}}
{"at":113.8653454068315,"kind":"assign","source":"cell0/replica0/run","instance":7,"worker":2,"seconds":69.28645462396017}
{"at":148.33078041323697,"kind":"preemption_notice","source":"cell0/replica0/cloud","instance":6,"seconds":30}
{"at":171.61203799736006,"kind":"worker_join","source":"cell0/replica0/session","worker":1,"step":0,"detail":{"label":"resnet-15"}}
{"at":178.33078041323697,"kind":"revocation","source":"cell0/replica0/cloud","instance":6,"detail":{"abrupt":"false","gpu":"K80"}}
{"at":178.33078041323697,"kind":"billing","source":"cell0/replica0/cloud","instance":6,"seconds":81.57771945469668,"usd":0.0030591644795511254,"detail":{"gpu":"K80","transient":"true"}}
{"at":178.33078041323697,"kind":"launch_attempt","source":"cell0/replica0/cloud","instance":9,"detail":{"gpu":"K80","region":"us-east1","transient":"true"}}
{"at":179.4648604411109,"kind":"worker_join","source":"cell0/replica0/session","worker":0,"step":42,"detail":{"label":"resnet-15"}}
{"at":180.14747884550195,"kind":"checkpoint_begin","source":"cell0/replica0/session","worker":1,"step":50}
{"at":183.15180003079166,"kind":"worker_join","source":"cell0/replica0/session","worker":2,"step":64,"detail":{"label":"resnet-15"}}
{"at":183.69596194400265,"kind":"upload","source":"cell0/replica0/store","seconds":3.5484830985006965,"detail":{"bytes":"2909820","key":"ckpt-step-50"}}
{"at":183.69596194400265,"kind":"checkpoint_commit","source":"cell0/replica0/session","worker":1,"step":50,"seconds":3.5484830985006965}
{"at":185.43110011648156,"kind":"checkpoint_begin","source":"cell0/replica0/session","worker":1,"step":101}
{"at":188.85282896218504,"kind":"upload","source":"cell0/replica0/store","seconds":3.421728845703484,"detail":{"bytes":"2909820","key":"ckpt-step-101"}}
{"at":188.85282896218504,"kind":"checkpoint_commit","source":"cell0/replica0/session","worker":1,"step":101,"seconds":3.421728845703484}
{"at":189.12684458570797,"kind":"checkpoint_begin","source":"cell0/replica0/session","worker":1,"step":150}
{"at":192.32045877237616,"kind":"run_complete","source":"cell0/replica0/session","step":200}
{"at":192.32045877237616,"kind":"billing","source":"cell0/replica0/run","seconds":192.32045877237616,"usd":0.01015024643520874,"detail":{"component":"ps","ps_count":"1"}}
{"at":192.32045877237616,"kind":"billing","source":"cell0/replica0/cloud","instance":7,"seconds":78.45511336554466,"usd":0.002942066751207925,"detail":{"gpu":"K80","transient":"true"}}
{"at":192.32045877237616,"kind":"billing","source":"cell0/replica0/cloud","instance":8,"seconds":91.56111084907066,"usd":0.00343354165684015,"detail":{"gpu":"K80","transient":"true"}}
{"at":192.71619966990673,"kind":"upload","source":"cell0/replica0/store","seconds":3.5893550841987576,"detail":{"bytes":"2909820","key":"ckpt-step-150"}}
{"at":192.71619966990673,"kind":"checkpoint_commit","source":"cell0/replica0/session","worker":1,"step":150,"seconds":3.5893550841987576}
{"at":0,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":0,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":0,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":1,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":0,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":2,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":2,"kind":"launch_failed","source":"cell0/replica1/cloud","instance":0,"detail":{"reason":"stockout"}}
{"at":2,"kind":"launch_failed","source":"cell0/replica1/cloud","instance":1,"detail":{"reason":"stockout"}}
{"at":2,"kind":"launch_failed","source":"cell0/replica1/cloud","instance":2,"detail":{"reason":"stockout"}}
{"at":5.016265019353369,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":3,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":5.24712246528047,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":4,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":5.253007977959837,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":5,"detail":{"gpu":"K80","region":"us-central1","transient":"true"}}
{"at":7.016265019353369,"kind":"launch_failed","source":"cell0/replica1/cloud","instance":3,"detail":{"reason":"stockout"}}
{"at":7.016265019353369,"kind":"fallback","source":"cell0/replica1/run","instance":3,"detail":{"stage":"region"}}
{"at":7.24712246528047,"kind":"launch_failed","source":"cell0/replica1/cloud","instance":4,"detail":{"reason":"stockout"}}
{"at":7.24712246528047,"kind":"fallback","source":"cell0/replica1/run","instance":4,"detail":{"stage":"region"}}
{"at":7.253007977959837,"kind":"launch_failed","source":"cell0/replica1/cloud","instance":5,"detail":{"reason":"stockout"}}
{"at":7.253007977959837,"kind":"fallback","source":"cell0/replica1/run","instance":5,"detail":{"stage":"region"}}
{"at":13.727478615610014,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":6,"detail":{"gpu":"K80","region":"us-east1","transient":"true"}}
{"at":15.172790786394943,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":7,"detail":{"gpu":"K80","region":"us-east1","transient":"true"}}
{"at":16.945231496886265,"kind":"launch_attempt","source":"cell0/replica1/cloud","instance":8,"detail":{"gpu":"K80","region":"us-east1","transient":"true"}}
{"at":79.50130612880179,"kind":"launch_running","source":"cell0/replica1/cloud","instance":6,"seconds":65.77382751319178,"detail":{"gpu":"K80","region":"us-east1"}}
{"at":79.50130612880179,"kind":"assign","source":"cell0/replica1/run","instance":6,"worker":0,"seconds":77.35404472373204}
{"at":79.52388412705176,"kind":"launch_running","source":"cell0/replica1/cloud","instance":7,"seconds":64.35109334065682,"detail":{"gpu":"K80","region":"us-east1"}}
{"at":79.52388412705176,"kind":"assign","source":"cell0/replica1/run","instance":7,"worker":1,"seconds":82.92041986859729}
{"at":123.21810445971958,"kind":"launch_running","source":"cell0/replica1/cloud","instance":8,"seconds":106.27287296283332,"detail":{"gpu":"K80","region":"us-east1"}}
{"at":123.21810445971958,"kind":"assign","source":"cell0/replica1/run","instance":8,"worker":2,"seconds":74.62013939180768}
{"at":156.85535085253383,"kind":"worker_join","source":"cell0/replica1/session","worker":0,"step":0,"detail":{"label":"resnet-15"}}
{"at":162.44430399564905,"kind":"worker_join","source":"cell0/replica1/session","worker":1,"step":27,"detail":{"label":"resnet-15"}}
{"at":164.61460796391492,"kind":"checkpoint_begin","source":"cell0/replica1/session","worker":0,"step":50}
{"at":168.39434514347244,"kind":"upload","source":"cell0/replica1/store","seconds":3.7797371795575145,"detail":{"bytes":"2909820","key":"ckpt-step-50"}}
{"at":168.39434514347244,"kind":"checkpoint_commit","source":"cell0/replica1/session","worker":0,"step":50,"seconds":3.7797371795575145}
{"at":170.25680091173274,"kind":"checkpoint_begin","source":"cell0/replica1/session","worker":0,"step":100}
{"at":173.81500536547753,"kind":"upload","source":"cell0/replica1/store","seconds":3.5582044537447928,"detail":{"bytes":"2909820","key":"ckpt-step-100"}}
{"at":173.81500536547753,"kind":"checkpoint_commit","source":"cell0/replica1/session","worker":0,"step":100,"seconds":3.5582044537447928}
{"at":175.07131755075136,"kind":"checkpoint_begin","source":"cell0/replica1/session","worker":0,"step":150}
{"at":180.494746478611,"kind":"run_complete","source":"cell0/replica1/session","step":200}
{"at":180.494746478611,"kind":"billing","source":"cell0/replica1/run","seconds":180.494746478611,"usd":0.009526111619704469,"detail":{"component":"ps","ps_count":"1"}}
{"at":180.494746478611,"kind":"billing","source":"cell0/replica1/cloud","instance":6,"seconds":100.99344034980922,"usd":0.003787254013117846,"detail":{"gpu":"K80","transient":"true"}}
{"at":180.494746478611,"kind":"billing","source":"cell0/replica1/cloud","instance":7,"seconds":100.97086235155925,"usd":0.0037864073381834724,"detail":{"gpu":"K80","transient":"true"}}
{"at":180.494746478611,"kind":"billing","source":"cell0/replica1/cloud","instance":8,"seconds":57.27664201889142,"usd":0.002147874075708429,"detail":{"gpu":"K80","transient":"true"}}
{"at":185.75053757446224,"kind":"upload_failed","source":"cell0/replica1/store","seconds":10.679220023710883,"detail":{"key":"ckpt-step-150"}}
)LEDGER"[1];

std::string golden_ledger_jsonl(int jobs) {
  ScenarioSweep sweep;
  sweep.name = "ledger-golden";
  sweep.base = resilience_demo_spec();
  sweep.base.max_steps = 200;
  sweep.base.checkpoint_interval_steps = 50;
  sweep.replicas = 2;
  sweep.seed = 2020;
  exp::RunOptions options;
  options.jobs = jobs;
  options.capture_telemetry = true;
  const ScenarioCampaignResult result = run_scenario_campaign(sweep, options);
  std::ostringstream out;
  obs::write_ledger_jsonl(result.telemetry->ledger, out);
  return out.str();
}

TEST(ScenarioLedger, GoldenLedgerByteIdenticalAtAnyJobs) {
  EXPECT_EQ(golden_ledger_jsonl(1), kGoldenLedgerJsonl);
  EXPECT_EQ(golden_ledger_jsonl(4), kGoldenLedgerJsonl);
}

TEST(ScenarioLedger, GoldenLedgerRoundTripsThroughTheReader) {
  const obs::LedgerParseResult parsed =
      obs::parse_ledger_jsonl(kGoldenLedgerJsonl);
  EXPECT_TRUE(parsed.ok());
  std::ostringstream out;
  obs::write_ledger_jsonl(parsed.ledger, out);
  EXPECT_EQ(out.str(), kGoldenLedgerJsonl);
}

// --- fleet campaign goldens (seed 2020, shrunk fleet sweep) -----------

/// The catalog's fleet sweep scaled to 32 tenants / 6 h so the four
/// contended cells finish in well under a second while keeping the
/// campaign's market regime (24-slot pools, two-worker tenants).
ScenarioSweep shrunk_fleet_sweep() {
  ScenarioSweep sweep = sweep_by_name("fleet").sweep;
  sweep.name = "fleet-golden";
  sweep.base.fleet.tenants = 32;
  sweep.base.fleet.min_steps = 2000;
  sweep.base.fleet.max_steps = 8000;
  sweep.base.fleet.checkpoint_interval_steps = 200;
  sweep.base.horizon_hours = 6.0;
  sweep.axes = {{"fleet.demand", {"0.5", "2"}},
                {"fleet.scheduler", {"round-robin", "cost-optimal"}}};
  sweep.replicas = 1;
  sweep.seed = 2020;
  return sweep;
}

ScenarioCampaignResult run_fleet_sweep(int jobs, bool telemetry) {
  exp::RunOptions options;
  options.jobs = jobs;
  options.capture_telemetry = telemetry;
  return run_scenario_campaign(shrunk_fleet_sweep(), options,
                               sweep_by_name("fleet").replica);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(FleetCampaign, GoldenCountersAtSeed2020) {
  const ScenarioCampaignResult result = run_fleet_sweep(1, false);
  ASSERT_EQ(result.cells.size(), 4u);
  const auto counter = [&](std::size_t cell, const char* metric) {
    return static_cast<long>(
        result.aggregates[cell].metrics.at(metric).running.mean());
  };
  // Cells in axis-expansion order: demand 0.5 / 2 x scheduler
  // round-robin / cost-optimal. Counters captured at introduction; any
  // drift in tenant draws, market clearing, or scheduler choices moves
  // at least one of them.
  EXPECT_EQ(counter(0, "placements"), 43);
  EXPECT_EQ(counter(0, "evictions_priceout"), 11);
  EXPECT_EQ(counter(0, "steps"), 76670);
  EXPECT_EQ(counter(0, "tenants_finished"), 32);
  EXPECT_EQ(counter(1, "placements"), 35);
  EXPECT_EQ(counter(1, "evictions_priceout"), 3);
  EXPECT_EQ(counter(1, "steps"), 90688);
  EXPECT_EQ(counter(2, "placements"), 825);
  EXPECT_EQ(counter(2, "evictions_priceout"), 793);
  EXPECT_EQ(counter(2, "steps"), 302474);
  EXPECT_EQ(counter(2, "tenants_finished"), 30);
  EXPECT_EQ(counter(3, "placements"), 38);
  EXPECT_EQ(counter(3, "evictions_priceout"), 5);
  EXPECT_EQ(counter(3, "migrations"), 1);

  // The two acceptance properties of the fleet layer, in-sweep: demand
  // drives endogenous evictions up under either scheduler, and the
  // cost-optimal scheduler is cheaper per step than round-robin at
  // every demand level.
  const auto metric = [&](std::size_t cell, const char* name) {
    return result.aggregates[cell].metrics.at(name).running.mean();
  };
  EXPECT_GT(metric(2, "evictions_total"), metric(0, "evictions_total"));
  EXPECT_GT(metric(3, "evictions_total"), metric(1, "evictions_total"));
  EXPECT_LT(metric(1, "usd_per_kstep"), metric(0, "usd_per_kstep"));
  EXPECT_LT(metric(3, "usd_per_kstep"), metric(2, "usd_per_kstep"));
}

TEST(FleetCampaign, CsvAndMergedLedgerByteIdenticalAcrossJobCounts) {
  const auto render = [](int jobs) {
    const ScenarioCampaignResult result = run_fleet_sweep(jobs, true);
    std::ostringstream csv;
    result.write_csv(csv);
    std::ostringstream ledger;
    obs::write_ledger_jsonl(result.telemetry->ledger, ledger);
    return std::pair<std::string, std::string>(csv.str(), ledger.str());
  };
  const auto [csv1, ledger1] = render(1);
  const auto [csv4, ledger4] = render(4);
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(ledger1, ledger4);
  // Byte-pins of the jobs=1 rendering (captured at introduction): the
  // full texts are too large to inline, so pin size + FNV-1a instead.
  EXPECT_EQ(csv1.size(), 5680u);
  EXPECT_EQ(fnv1a(csv1), 3721629711922898296ull);
  EXPECT_EQ(ledger1.size(), 839130u);
  EXPECT_EQ(fnv1a(ledger1), 1843324255589098857ull);
  // Merged fleet events carry the campaign cell/replica scope prefix,
  // which is what keeps them joinable with that replica's billing rows.
  EXPECT_NE(ledger1.find("\"source\":\"cell0/replica0/fleet\""),
            std::string::npos);
  EXPECT_NE(ledger1.find("\"kind\":\"tenant_placement\""), std::string::npos);
  EXPECT_NE(ledger1.find("\"kind\":\"eviction\""), std::string::npos);
}

}  // namespace
}  // namespace cmdare::scenario
