// Run-ledger tests: JSONL codec round-trips, deterministic campaign
// merges, the obs::analyze fold (recovery timelines + Eq. 4 cost
// decomposition), and the cost identity
//   useful + wasted + overhead + idle == billed
// on real scenario runs. The identity is the load-bearing guarantee: a
// cost decomposition that loses or double-counts seconds silently
// corrupts every downstream $/step figure.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "scenario/harness.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::obs {
namespace {

LedgerEvent make_event(LedgerEventKind kind, double at,
                       const std::string& source, long long instance = -1,
                       long long worker = -1, double seconds = 0.0,
                       double usd = 0.0, LabelSet detail = {}) {
  LedgerEvent event;
  event.kind = kind;
  event.at = at;
  event.source = source;
  event.instance = instance;
  event.worker = worker;
  event.seconds = seconds;
  event.usd = usd;
  event.detail = std::move(detail);
  return event;
}

TEST(LedgerCodec, KindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(LedgerEventKind::kBilling); ++k) {
    const auto kind = static_cast<LedgerEventKind>(k);
    const std::string_view name = ledger_event_kind_name(kind);
    EXPECT_FALSE(name.empty());
    const auto back = ledger_event_kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(ledger_event_kind_from_name("no_such_kind").has_value());
}

TEST(LedgerCodec, JsonlRoundTripIsTheIdentity) {
  Ledger ledger;
  ledger.record(make_event(LedgerEventKind::kLaunchAttempt, 0.0, "cloud", 1,
                           -1, 0.0, 0.0, {{"gpu", "k80"}, {"region", "us"}}));
  ledger.record(make_event(LedgerEventKind::kLaunchRunning, 42.5, "cloud", 1));
  LedgerEvent with_step =
      make_event(LedgerEventKind::kCheckpointCommit, 100.25, "session", -1, 2,
                 7.5, 0.0, {{"key", "ckpt/a b\"c\\d"}});
  with_step.step = 400;
  ledger.record(with_step);
  ledger.record(make_event(LedgerEventKind::kBilling, 279.17601694722356,
                           "cloud", 3, -1, 123.456, 0.03357100669575535,
                           {{"transient", "true"}}));

  std::ostringstream out;
  write_ledger_jsonl(ledger, out);
  const std::string serial = out.str();

  const LedgerParseResult parsed = parse_ledger_jsonl(serial);
  ASSERT_TRUE(parsed.ok()) << (parsed.errors.empty() ? "" : parsed.errors[0]);
  ASSERT_EQ(parsed.ledger.size(), ledger.size());
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const LedgerEvent& a = ledger.events()[i];
    const LedgerEvent& b = parsed.ledger.events()[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_EQ(a.source, b.source) << i;
    EXPECT_EQ(a.instance, b.instance) << i;
    EXPECT_EQ(a.worker, b.worker) << i;
    EXPECT_EQ(a.step, b.step) << i;
    EXPECT_EQ(a.seconds, b.seconds) << i;
    EXPECT_EQ(a.usd, b.usd) << i;
    EXPECT_EQ(a.detail, b.detail) << i;
  }

  // Re-serialization reproduces the exact bytes (canonical key order,
  // omitted defaults, shortest-round-trip doubles).
  std::ostringstream again;
  write_ledger_jsonl(parsed.ledger, again);
  EXPECT_EQ(again.str(), serial);
}

TEST(LedgerCodec, DefaultFieldsAreOmitted) {
  LedgerEvent event;
  event.kind = LedgerEventKind::kRunComplete;
  event.at = 10.0;
  event.source = "session";
  const std::string line = serialize_ledger_event(event);
  EXPECT_EQ(line.find("instance"), std::string::npos) << line;
  EXPECT_EQ(line.find("worker"), std::string::npos) << line;
  EXPECT_EQ(line.find("step"), std::string::npos) << line;
  EXPECT_EQ(line.find("seconds"), std::string::npos) << line;
  EXPECT_EQ(line.find("usd"), std::string::npos) << line;
  EXPECT_EQ(line.find("detail"), std::string::npos) << line;
}

TEST(LedgerCodec, MalformedLinesBecomeDiagnosticsNotThrows) {
  const std::string text =
      serialize_ledger_event(
          make_event(LedgerEventKind::kRevocation, 5.0, "cloud", 9)) +
      "\n"
      "{not json\n"
      "\n"  // blank lines are ignored
      "{\"at\":1,\"kind\":\"no_such_kind\",\"source\":\"x\"}\n"
      "[1,2,3]\n" +
      serialize_ledger_event(
          make_event(LedgerEventKind::kExpiry, 6.0, "cloud", 10)) +
      "\n";
  const LedgerParseResult parsed = parse_ledger_jsonl(text);
  EXPECT_EQ(parsed.ledger.size(), 2u);
  EXPECT_EQ(parsed.errors.size(), 3u);
  for (const std::string& error : parsed.errors) {
    EXPECT_EQ(error.find("line "), 0u) << error;
  }
}

TEST(LedgerMerge, PrependsSourcePrefix) {
  Ledger a;
  a.record(make_event(LedgerEventKind::kRevocation, 1.0, "cloud", 1));
  Ledger b;
  b.record(make_event(LedgerEventKind::kRevocation, 2.0, "cloud", 1));
  Ledger merged;
  merged.merge(a, "replica0/");
  merged.merge(b, "replica1/");
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.events()[0].source, "replica0/cloud");
  EXPECT_EQ(merged.events()[1].source, "replica1/cloud");
}

// --- analyzer on a hand-built ledger ----------------------------------

/// One synthetic run: instance 1 starts, checkpoints once, dies; the
/// supervisor detects the death; instance 2 replaces it and catches up.
Ledger synthetic_recovery_ledger() {
  Ledger ledger;
  ledger.record(make_event(LedgerEventKind::kLaunchAttempt, 0.0, "cloud", 1));
  ledger.record(
      make_event(LedgerEventKind::kLaunchRunning, 5.0, "cloud", 1, -1, 5.0));
  // Worker 0 binds to instance 1 with a 60 s environment-setup delay.
  ledger.record(
      make_event(LedgerEventKind::kAssign, 5.0, "run", 1, 0, 60.0));
  // A 10 s checkpoint committed by worker 0 ends at t=90.
  ledger.record(make_event(LedgerEventKind::kCheckpointCommit, 90.0,
                           "session", -1, 0, 10.0));
  ledger.record(make_event(LedgerEventKind::kRevocation, 100.0, "cloud", 1));
  ledger.record(
      make_event(LedgerEventKind::kDetection, 110.0, "supervisor", 1, -1,
                 10.0));
  ledger.record(
      make_event(LedgerEventKind::kLaunchAttempt, 110.0, "cloud", 2));
  ledger.record(
      make_event(LedgerEventKind::kLaunchRunning, 140.0, "cloud", 2, -1,
                 30.0));
  ledger.record(
      make_event(LedgerEventKind::kAssign, 140.0, "run", 2, 0, 60.0));
  ledger.record(make_event(LedgerEventKind::kCatchupComplete, 140.0, "run", 2,
                           0, 100.0, 0.0, {{"replaces", "1"}}));
  // Billing: instance 1 billed [0, 100], instance 2 billed [140, 300].
  ledger.record(make_event(LedgerEventKind::kBilling, 100.0, "cloud", 1, -1,
                           100.0, 0.10));
  ledger.record(make_event(LedgerEventKind::kBilling, 300.0, "cloud", 2, -1,
                           160.0, 0.16));
  // Parameter-server billing is useful by convention.
  ledger.record(make_event(LedgerEventKind::kBilling, 300.0, "run", -1, -1,
                           300.0, 0.05, {{"component", "ps"}}));
  return ledger;
}

TEST(LedgerAnalyze, RecoveryTimelineFromSyntheticRun) {
  const analyze::LedgerAnalysis analysis =
      analyze::analyze_ledger(synthetic_recovery_ledger());

  ASSERT_EQ(analysis.recovery.incidents.size(), 1u);
  const analyze::RecoveryIncident& incident = analysis.recovery.incidents[0];
  EXPECT_EQ(incident.dead_instance, 1);
  EXPECT_EQ(incident.replacement_instance, 2);
  // catchup_complete fires at RUNNING (t=140); the worker rejoins after
  // its 60 s join delay, so the outage is [100, 200].
  EXPECT_DOUBLE_EQ(incident.rejoined_at, 200.0);
  EXPECT_DOUBLE_EQ(incident.started_at, 100.0);
  EXPECT_DOUBLE_EQ(incident.total_s, 100.0);
  EXPECT_DOUBLE_EQ(incident.detection_s, 10.0);   // death -> verdict
  EXPECT_DOUBLE_EQ(incident.request_s, 0.0);      // verdict -> attempt
  EXPECT_DOUBLE_EQ(incident.startup_s, 30.0);     // attempt -> RUNNING
  EXPECT_DOUBLE_EQ(incident.catchup_s, 60.0);     // RUNNING -> rejoined
  EXPECT_EQ(analysis.recovery.unmatched_deaths, 0u);
  EXPECT_EQ(analysis.recovery.total.count, 1u);
  EXPECT_DOUBLE_EQ(analysis.recovery.total.mean, 100.0);

  EXPECT_EQ(analysis.counts.launches, 2u);
  EXPECT_EQ(analysis.counts.revocations, 1u);
  EXPECT_EQ(analysis.counts.detections, 1u);
  EXPECT_EQ(analysis.counts.checkpoints, 1u);
  EXPECT_EQ(analysis.counts.scopes, 1u);
}

TEST(LedgerAnalyze, CostBucketsPartitionEveryBilledSecond) {
  const analyze::LedgerAnalysis analysis =
      analyze::analyze_ledger(synthetic_recovery_ledger());
  const analyze::CostDecomposition& cost = analysis.cost;

  // Instance 1, window [0,100]: 60 s join-delay idle + 10 s checkpoint
  // overhead (attributed via the worker->instance map) + 30 s useful.
  // Instance 2, window [140,300]: 60 s join-delay idle + 100 s useful.
  // PS, 300 s: useful by convention.
  EXPECT_DOUBLE_EQ(cost.idle.seconds, 120.0);
  EXPECT_DOUBLE_EQ(cost.overhead.seconds, 10.0);
  EXPECT_DOUBLE_EQ(cost.wasted.seconds, 0.0);
  EXPECT_DOUBLE_EQ(cost.useful.seconds, 430.0);
  EXPECT_DOUBLE_EQ(cost.billed_seconds, 560.0);
  EXPECT_DOUBLE_EQ(cost.billed_usd, 0.31);
  EXPECT_NEAR(cost.classified_seconds(), cost.billed_seconds, 1e-9);
  EXPECT_NEAR(cost.classified_usd(), cost.billed_usd, 1e-9);
}

TEST(LedgerAnalyze, RollbackWindowCountsAsWasted) {
  Ledger ledger;
  ledger.record(make_event(LedgerEventKind::kLaunchAttempt, 0.0, "cloud", 1));
  ledger.record(make_event(LedgerEventKind::kAssign, 0.0, "run", 1, 0, 0.0));
  // 40 s of work discarded by the rollback at t=100.
  ledger.record(
      make_event(LedgerEventKind::kRollback, 100.0, "session", -1, -1, 40.0));
  ledger.record(make_event(LedgerEventKind::kBilling, 120.0, "cloud", 1, -1,
                           120.0, 0.12));
  const analyze::LedgerAnalysis analysis = analyze::analyze_ledger(ledger);
  EXPECT_DOUBLE_EQ(analysis.cost.wasted.seconds, 40.0);
  EXPECT_DOUBLE_EQ(analysis.cost.useful.seconds, 80.0);
  EXPECT_NEAR(analysis.cost.classified_seconds(),
              analysis.cost.billed_seconds, 1e-9);
}

TEST(LedgerAnalyze, ExportsEveryMetricToRegistryAndCsv) {
  const analyze::LedgerAnalysis analysis =
      analyze::analyze_ledger(synthetic_recovery_ledger());

  Registry registry;
  analyze::export_to_registry(analysis, registry);
  bool saw_useful = false;
  bool saw_incidents = false;
  for (const SnapshotRow& row : registry.snapshot(std::string_view("analyze."))) {
    if (row.name == "analyze.cost.useful_seconds") saw_useful = true;
    if (row.name == "analyze.recovery.incidents") saw_incidents = true;
  }
  EXPECT_TRUE(saw_useful);
  EXPECT_TRUE(saw_incidents);

  std::ostringstream csv;
  analyze::write_analysis_csv(analysis, csv);
  EXPECT_NE(csv.str().find("metric,value"), std::string::npos);
  EXPECT_NE(csv.str().find("cost.billed_seconds,560"), std::string::npos);

  std::ostringstream report;
  analyze::write_report(analysis, report);
  EXPECT_NE(report.str().find("Cost decomposition"), std::string::npos);
  EXPECT_NE(report.str().find("Recovery timelines"), std::string::npos);
}

// --- cost identity on real scenario runs ------------------------------

scenario::ScenarioSpec resilience_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "ledger-resilience";
  spec.kind = scenario::HarnessKind::kRun;
  spec.seed = 2020;
  spec.model = "resnet-15";
  spec.workers = {
      {3, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  spec.max_steps = 2000;
  spec.checkpoint_interval_steps = 200;
  spec.horizon_hours = 48.0;
  spec.faults = faults::FaultPlan::uniform(0.2);
  return spec;
}

scenario::ScenarioSpec supervise_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "ledger-supervise";
  spec.kind = scenario::HarnessKind::kRun;
  spec.seed = 2031;
  spec.model = "resnet-15";
  spec.workers = {
      {3, cloud::GpuType::kK80, cloud::Region::kEuropeWest1, true}};
  spec.max_steps = 200000;  // unreachable: the horizon ends the run
  spec.checkpoint_interval_steps = 2000;
  spec.horizon_hours = 24.0;
  spec.faults.abrupt_kill_rate = 1.0;
  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 15.0;
  spec.supervision.heartbeat.timeout_s = 120.0;
  return spec;
}

void expect_cost_identity(const scenario::ScenarioSpec& spec) {
  ScopedTelemetry telemetry;
  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();
  const analyze::LedgerAnalysis analysis =
      analyze::analyze_ledger(telemetry->ledger);

  // Eq. 4 identity: the four buckets partition the billed time exactly.
  EXPECT_GT(analysis.cost.billed_seconds, 0.0);
  EXPECT_NEAR(analysis.cost.classified_seconds(),
              analysis.cost.billed_seconds, 1e-9);
  EXPECT_NEAR(analysis.cost.classified_usd(), analysis.cost.billed_usd, 1e-9);
  // Every dollar the harness reports is in the ledger (billing ticks
  // cover instances still alive at a horizon-limited collect()).
  EXPECT_NEAR(analysis.cost.billed_usd, result.cost_usd, 1e-9);
}

TEST(LedgerAnalyze, CostIdentityOnResilienceScenario) {
  expect_cost_identity(resilience_spec());
}

TEST(LedgerAnalyze, CostIdentityOnSuperviseScenario) {
  expect_cost_identity(supervise_spec());
}

TEST(LedgerAnalyze, SuperviseScenarioYieldsCompleteIncidents) {
  ScopedTelemetry telemetry;
  scenario::SimHarness harness(supervise_spec());
  harness.run();
  const analyze::LedgerAnalysis analysis =
      analyze::analyze_ledger(telemetry->ledger);
  EXPECT_GE(analysis.counts.detections, 1u);
  EXPECT_GE(analysis.recovery.incidents.size(), 1u);
  for (const analyze::RecoveryIncident& incident :
       analysis.recovery.incidents) {
    EXPECT_GT(incident.total_s, 0.0);
    // Phases never exceed the whole outage.
    EXPECT_LE(incident.detection_s + incident.request_s + incident.startup_s,
              incident.total_s + 1e-9);
  }
}

// --- campaign merge determinism ---------------------------------------

std::string campaign_ledger_jsonl(int jobs) {
  scenario::ScenarioSweep sweep;
  sweep.name = "ledger-jobs";
  sweep.base = resilience_spec();
  sweep.base.max_steps = 200;
  sweep.base.checkpoint_interval_steps = 50;
  sweep.axes = {{"fault_rate", {"0", "0.2"}}};
  sweep.replicas = 2;
  sweep.seed = 2020;

  exp::RunOptions options;
  options.jobs = jobs;
  options.capture_telemetry = true;
  const scenario::ScenarioCampaignResult result =
      scenario::run_scenario_campaign(sweep, options);
  EXPECT_NE(result.telemetry, nullptr);
  std::ostringstream out;
  write_ledger_jsonl(result.telemetry->ledger, out);
  return out.str();
}

TEST(LedgerCampaign, MergedJsonlByteIdenticalAcrossJobCounts) {
  const std::string serial = campaign_ledger_jsonl(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(campaign_ledger_jsonl(4), serial);
  EXPECT_EQ(campaign_ledger_jsonl(0), serial);  // hardware thread count
  // Replica-major source prefixes are present.
  EXPECT_NE(serial.find("cell0/replica0/"), std::string::npos);
  EXPECT_NE(serial.find("cell1/replica1/"), std::string::npos);
}

}  // namespace
}  // namespace cmdare::obs
