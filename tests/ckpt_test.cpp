// Checkpoint data plane: tier-aware placement, end-to-end manifest
// integrity, generational restore fallback orderings, and the
// golden-pinned ckpt campaign (CSV + merged ledger byte-identical across
// job counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/manifest.hpp"
#include "ckpt/plane.hpp"
#include "cloud/storage.hpp"
#include "cloud/tier.hpp"
#include "exp/campaign.hpp"
#include "faults/faults.hpp"
#include "obs/analyze.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"
#include "scenario/sweep.hpp"
#include "simcore/simulator.hpp"
#include "util/rng.hpp"

namespace cmdare {
namespace {

using ckpt::CheckpointPlane;
using ckpt::PlaneConfig;
using ckpt::PlannedWrite;
using cloud::ObjectStore;
using cloud::StorageTier;

constexpr std::uint64_t kFullBytes = 90'000'000;  // ~ResNet checkpoint

PlaneConfig small_config() {
  PlaneConfig config;
  config.enabled = true;
  config.delta_ratio = 0.1;
  config.max_delta_chain = 2;
  config.max_generations = 2;
  return config;
}

/// Plans, uploads and commits the checkpoint at `step` through the plane,
/// exactly like the session's checkpoint hot path.
PlannedWrite commit_checkpoint(simcore::Simulator& sim, ObjectStore& store,
                               CheckpointPlane& plane, long step) {
  const PlannedWrite write = plane.plan_write(step, kFullBytes);
  store.upload(write.key, write.bytes, [] {}, nullptr, write.tier);
  sim.run();
  plane.commit_write(write);
  return write;
}

/// Overwrites `key` with a different byte count: the durable blob no
/// longer matches its manifest record, so verification sees "truncated".
void corrupt_blob(simcore::Simulator& sim, ObjectStore& store,
                  const std::string& key) {
  store.upload(key, store.blob_size(key) / 2 + 1, [] {});
  sim.run();
}

void advance_to(simcore::Simulator& sim, double when) {
  sim.schedule_after(when - sim.now(), [] {}, "test.advance");
  sim.run();
}

TEST(CkptPlane, ConfigValidation) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(1));
  PlaneConfig bad_ratio = small_config();
  bad_ratio.delta_ratio = 0.0;
  EXPECT_THROW(CheckpointPlane(sim, store, bad_ratio), std::invalid_argument);
  bad_ratio.delta_ratio = 1.5;
  EXPECT_THROW(CheckpointPlane(sim, store, bad_ratio), std::invalid_argument);
  PlaneConfig bad_chain = small_config();
  bad_chain.max_delta_chain = 0;
  EXPECT_THROW(CheckpointPlane(sim, store, bad_chain), std::invalid_argument);
  PlaneConfig bad_gens = small_config();
  bad_gens.max_generations = 0;
  EXPECT_THROW(CheckpointPlane(sim, store, bad_gens), std::invalid_argument);
}

TEST(CkptPlane, BaseDeltaPlanningAndTierPlacement) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(2));
  CheckpointPlane plane(sim, store, small_config());

  // First checkpoint: a full base on the regional tier.
  const PlannedWrite base1 = commit_checkpoint(sim, store, plane, 10);
  EXPECT_TRUE(base1.is_base);
  EXPECT_FALSE(base1.compaction);
  EXPECT_EQ(base1.key, "ckpt/g1/base-10");
  EXPECT_EQ(base1.bytes, kFullBytes);
  EXPECT_EQ(store.blob_tier(base1.key), StorageTier::kRegional);

  // Deltas ride the local cache tier at delta_ratio of the full size.
  const PlannedWrite delta1 = commit_checkpoint(sim, store, plane, 20);
  EXPECT_FALSE(delta1.is_base);
  EXPECT_EQ(delta1.key, "ckpt/g1/delta-20");
  EXPECT_EQ(delta1.bytes, kFullBytes / 10);
  EXPECT_EQ(store.blob_tier(delta1.key), StorageTier::kLocal);
  const PlannedWrite delta2 = commit_checkpoint(sim, store, plane, 30);
  EXPECT_FALSE(delta2.is_base);

  // Chain full (max_delta_chain=2): the next write compacts into a new
  // base and the superseded generation is demoted to cold storage.
  const PlannedWrite base2 = commit_checkpoint(sim, store, plane, 40);
  EXPECT_TRUE(base2.is_base);
  EXPECT_TRUE(base2.compaction);
  EXPECT_EQ(base2.key, "ckpt/g2/base-40");
  EXPECT_EQ(store.blob_tier(base1.key), StorageTier::kCold);
  EXPECT_EQ(store.blob_tier(delta1.key), StorageTier::kCold);
  EXPECT_EQ(store.blob_tier(delta2.key), StorageTier::kCold);
  EXPECT_EQ(store.blob_tier(base2.key), StorageTier::kRegional);

  EXPECT_EQ(plane.base_writes(), 2u);
  EXPECT_EQ(plane.delta_writes(), 2u);
  EXPECT_EQ(plane.compactions(), 1u);
  ASSERT_EQ(plane.generations().size(), 2u);
  EXPECT_EQ(plane.generations()[0].newest_step(), 30);
  EXPECT_EQ(plane.generations()[1].newest_step(), 40);

  // A third generation trims the manifest to max_generations=2.
  commit_checkpoint(sim, store, plane, 50);
  commit_checkpoint(sim, store, plane, 60);
  commit_checkpoint(sim, store, plane, 70);
  ASSERT_EQ(plane.generations().size(), 2u);
  EXPECT_EQ(plane.generations()[0].id, 2u);
  EXPECT_EQ(plane.generations()[1].id, 3u);

  // Every transfer accrued tier dollars into the store's ledger.
  EXPECT_GT(plane.tier_cost_usd(), 0.0);
}

TEST(CkptPlane, VerifiedRestorePromotesGenerationToLocal) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(3));
  CheckpointPlane plane(sim, store, small_config());
  const PlannedWrite base = commit_checkpoint(sim, store, plane, 10);
  const PlannedWrite delta = commit_checkpoint(sim, store, plane, 20);

  EXPECT_EQ(plane.restorable_step(), 20);
  EXPECT_EQ(plane.verified_restores(), 1u);
  EXPECT_EQ(plane.quarantines(), 0u);
  EXPECT_EQ(plane.cold_restarts(), 0u);
  // The restore fast path pulls the whole generation into the local cache.
  EXPECT_EQ(store.blob_tier(base.key), StorageTier::kLocal);
  EXPECT_EQ(store.blob_tier(delta.key), StorageTier::kLocal);
}

TEST(CkptPlane, CorruptNewestGenerationFallsBackToOlder) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(4));
  CheckpointPlane plane(sim, store, small_config());
  // Generation 1 (base 10, deltas 20/30) then generation 2 (base 40).
  commit_checkpoint(sim, store, plane, 10);
  commit_checkpoint(sim, store, plane, 20);
  commit_checkpoint(sim, store, plane, 30);
  const PlannedWrite base2 = commit_checkpoint(sim, store, plane, 40);

  corrupt_blob(sim, store, base2.key);
  EXPECT_EQ(plane.restorable_step(), 30);  // newest *verified* generation
  EXPECT_EQ(plane.quarantines(), 1u);
  EXPECT_EQ(plane.verified_restores(), 1u);
  EXPECT_TRUE(plane.generations().back().quarantined);
  EXPECT_FALSE(plane.generations().front().quarantined);
}

TEST(CkptPlane, BrokenDeltaChainQuarantinesWholeGeneration) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(5));
  PlaneConfig config = small_config();
  config.max_delta_chain = 3;
  CheckpointPlane plane(sim, store, config);
  // Generation 1 (base 10, deltas 20/30/40) then generation 2 with a
  // full chain of its own: base 50 + deltas 60, 70, 80.
  commit_checkpoint(sim, store, plane, 10);
  commit_checkpoint(sim, store, plane, 20);
  commit_checkpoint(sim, store, plane, 30);
  commit_checkpoint(sim, store, plane, 40);
  commit_checkpoint(sim, store, plane, 50);
  commit_checkpoint(sim, store, plane, 60);
  const PlannedWrite middle = commit_checkpoint(sim, store, plane, 70);
  commit_checkpoint(sim, store, plane, 80);

  // One broken middle link invalidates step 80 too: the whole generation
  // is quarantined even though its base and newest delta are intact, and
  // restore falls back to generation 1's newest step.
  corrupt_blob(sim, store, middle.key);
  EXPECT_EQ(plane.restorable_step(), 40);
  EXPECT_EQ(plane.quarantines(), 1u);
  EXPECT_TRUE(plane.generations().back().quarantined);
}

TEST(CkptPlane, AllGenerationsCorruptMeansCleanColdRestart) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(6));
  CheckpointPlane plane(sim, store, small_config());
  const PlannedWrite base1 = commit_checkpoint(sim, store, plane, 10);
  commit_checkpoint(sim, store, plane, 20);
  commit_checkpoint(sim, store, plane, 30);
  const PlannedWrite base2 = commit_checkpoint(sim, store, plane, 40);

  corrupt_blob(sim, store, base1.key);
  corrupt_blob(sim, store, base2.key);
  EXPECT_EQ(plane.restorable_step(), 0);
  EXPECT_EQ(plane.cold_restarts(), 1u);
  EXPECT_EQ(plane.quarantines(), 2u);
  EXPECT_EQ(plane.verified_restores(), 0u);

  // After a cold restart the next checkpoint opens a fresh generation:
  // every quarantined chain is dead, never appended to.
  const PlannedWrite next = plane.plan_write(5, kFullBytes);
  EXPECT_TRUE(next.is_base);
  EXPECT_EQ(next.key, "ckpt/g3/base-5");
}

TEST(CkptPlane, TornWriteAndBitRotDrawsAreDetectedOnRestore) {
  // Torn write: fewer bytes durable than the manifest records.
  {
    simcore::Simulator sim;
    ObjectStore store(sim, util::Rng(7));
    faults::FaultPlan plan;
    plan.torn_write_rate = 1.0;
    faults::FaultInjector injector(plan, util::Rng(7));
    CheckpointPlane plane(sim, store, small_config(), &injector);
    commit_checkpoint(sim, store, plane, 10);
    EXPECT_EQ(plane.restorable_step(), 0);
    EXPECT_EQ(plane.quarantines(), 1u);
    EXPECT_EQ(plane.cold_restarts(), 1u);
  }
  // Bit rot: stored checksum drifts from the manifest checksum.
  {
    simcore::Simulator sim;
    ObjectStore store(sim, util::Rng(8));
    faults::FaultPlan plan;
    plan.bit_rot_rate = 1.0;
    faults::FaultInjector injector(plan, util::Rng(8));
    CheckpointPlane plane(sim, store, small_config(), &injector);
    commit_checkpoint(sim, store, plane, 10);
    EXPECT_EQ(plane.restorable_step(), 0);
    EXPECT_EQ(plane.quarantines(), 1u);
    EXPECT_EQ(plane.cold_restarts(), 1u);
  }
}

TEST(CkptPlane, TierOutageSkipsGenerationWithoutQuarantine) {
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(9));
  faults::FaultPlan plan;
  faults::TierOutageWindow window;
  window.tier = StorageTier::kRegional;
  window.start_s = 1000.0;
  window.end_s = 2000.0;
  plan.tier_outages.push_back(window);
  faults::FaultInjector injector(plan, util::Rng(9));
  CheckpointPlane plane(sim, store, small_config(), &injector);

  // Generation 1 (demoted to cold when gen 2's base lands) and
  // generation 2 whose base lives on the struck regional tier.
  commit_checkpoint(sim, store, plane, 10);
  commit_checkpoint(sim, store, plane, 20);
  commit_checkpoint(sim, store, plane, 30);
  commit_checkpoint(sim, store, plane, 40);

  // Inside the outage the newest generation is dark, not corrupt: the
  // restore skips it without quarantining and lands on generation 1.
  advance_to(sim, 1500.0);
  EXPECT_EQ(plane.restorable_step(), 30);
  EXPECT_EQ(plane.quarantines(), 0u);
  EXPECT_EQ(plane.verified_restores(), 1u);
  EXPECT_FALSE(plane.generations().back().quarantined);

  // After the window the generation verifies as if nothing happened.
  advance_to(sim, 2500.0);
  EXPECT_EQ(plane.restorable_step(), 40);
  EXPECT_EQ(plane.quarantines(), 0u);
  EXPECT_EQ(plane.verified_restores(), 2u);
}

std::string detail_value(const obs::LedgerEvent& event, const std::string& key) {
  for (const auto& [k, v] : event.detail) {
    if (k == key) return v;
  }
  return "";
}

TEST(CkptPlane, LedgerEventsAndAnalyzerRollup) {
  obs::ScopedTelemetry telemetry;
  simcore::Simulator sim;
  ObjectStore store(sim, util::Rng(10));
  CheckpointPlane plane(sim, store, small_config());
  commit_checkpoint(sim, store, plane, 10);
  commit_checkpoint(sim, store, plane, 20);
  commit_checkpoint(sim, store, plane, 30);
  const PlannedWrite base2 = commit_checkpoint(sim, store, plane, 40);

  corrupt_blob(sim, store, base2.key);
  EXPECT_EQ(plane.restorable_step(), 30);  // quarantine + depth-1 fallback
  corrupt_blob(sim, store, "ckpt/g1/base-10");
  EXPECT_EQ(plane.restorable_step(), 0);  // everything bad: cold restart

  const obs::Ledger& ledger = telemetry->ledger;
  std::optional<obs::LedgerEvent> quarantine;
  std::optional<obs::LedgerEvent> verified;
  std::optional<obs::LedgerEvent> cold;
  std::optional<obs::LedgerEvent> compact;
  for (const obs::LedgerEvent& event : ledger.events()) {
    switch (event.kind) {
      case obs::LedgerEventKind::kCkptQuarantine:
        if (!quarantine) quarantine = event;
        break;
      case obs::LedgerEventKind::kCkptRestore:
        if (detail_value(event, "result") == "verified") verified = event;
        if (detail_value(event, "result") == "cold_restart") cold = event;
        break;
      case obs::LedgerEventKind::kCkptCompact:
        compact = event;
        break;
      default:
        break;
    }
  }
  ASSERT_TRUE(quarantine.has_value());
  EXPECT_EQ(detail_value(*quarantine, "reason"), "truncated");
  EXPECT_EQ(detail_value(*quarantine, "generation"), "2");
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(detail_value(*verified, "depth"), "1");
  EXPECT_EQ(verified->step, 30);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(detail_value(*cold, "depth"), "2");
  EXPECT_EQ(cold->step, -1);
  ASSERT_TRUE(compact.has_value());  // the gen-2 base was a compaction

  // Serialize -> parse -> analyze: the report carries the plane section.
  std::ostringstream jsonl;
  obs::write_ledger_jsonl(ledger, jsonl);
  const obs::LedgerParseResult parsed = obs::parse_ledger_jsonl(jsonl.str());
  ASSERT_TRUE(parsed.ok());
  const obs::analyze::LedgerAnalysis analysis =
      obs::analyze::analyze_ledger(parsed.ledger);
  EXPECT_EQ(analysis.ckpt.quarantines, 2u);
  EXPECT_EQ(analysis.ckpt.quarantines_truncated, 2u);
  EXPECT_EQ(analysis.ckpt.verified_restores, 1u);
  EXPECT_EQ(analysis.ckpt.fallback_restores, 1u);
  EXPECT_EQ(analysis.ckpt.cold_restarts, 1u);
  EXPECT_EQ(analysis.ckpt.max_fallback_depth, 2u);
  EXPECT_EQ(analysis.ckpt.compactions, 1u);
  std::ostringstream report;
  obs::analyze::write_report(analysis, report);
  EXPECT_NE(report.str().find("Checkpoint data plane"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Harness integration and the golden-pinned ckpt campaign.
// ---------------------------------------------------------------------------

/// The catalog's ckpt scenario shrunk for tests: shorter run, compressed
/// storm, same tiers/rates.
scenario::ScenarioSpec shrunk_ckpt_scenario() {
  scenario::ScenarioSpec spec = scenario::checked_in_scenario("ckpt_tiers");
  spec.max_steps = 100000;
  spec.checkpoint_interval_steps = 4000;
  spec.horizon_hours = 6.0;
  spec.faults.storms[0].start_s = 1800.0;
  spec.faults.storms[0].end_s = 3600.0;
  spec.faults.tier_outages[0].start_s = 3600.0;
  spec.faults.tier_outages[0].end_s = 5400.0;
  return spec;
}

TEST(CkptScenario, HarnessRunsThePlaneEndToEnd) {
  scenario::ScenarioSpec spec = shrunk_ckpt_scenario();
  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.completed_steps, 100000);
  EXPECT_GT(result.ckpt_base_writes, 0u);
  EXPECT_GT(result.ckpt_delta_writes, 0u);
  EXPECT_GT(result.ckpt_tier_cost_usd, 0.0);
  // The storm guarantees chief-killing revocations, so the restore path
  // ran: every restore either verified a generation or cold-restarted.
  EXPECT_GT(result.revocations, 0);
  EXPECT_GT(result.ckpt_verified_restores + result.ckpt_cold_restarts, 0u);
}

TEST(CkptScenario, DisabledPlaneLeavesLegacyPathUntouched) {
  scenario::ScenarioSpec spec = shrunk_ckpt_scenario();
  spec.ckpt.enabled = false;
  scenario::SimHarness harness(spec);
  const scenario::ScenarioResult result = harness.run();
  EXPECT_GT(result.checkpoint_blobs, 0u);
  EXPECT_EQ(result.ckpt_base_writes, 0u);
  EXPECT_EQ(result.ckpt_delta_writes, 0u);
  EXPECT_EQ(result.ckpt_verified_restores, 0u);
  EXPECT_EQ(result.ckpt_cold_restarts, 0u);
  EXPECT_EQ(result.ckpt_tier_cost_usd, 0.0);
}

scenario::ScenarioSweep shrunk_ckpt_sweep(int replicas) {
  scenario::ScenarioSweep sweep = scenario::sweep_by_name("ckpt").sweep;
  sweep.name = "ckpt-golden";
  sweep.base = shrunk_ckpt_scenario();
  sweep.axes = {
      {"ckpt.enabled", {"false", "true"}},
      {"ckpt.bit_rot_rate", {"0", "0.25"}},
  };
  sweep.replicas = replicas;
  sweep.seed = 1111;
  return sweep;
}

scenario::ScenarioCampaignResult run_ckpt_sweep(int replicas, int jobs,
                                                bool telemetry) {
  exp::RunOptions options;
  options.jobs = jobs;
  options.capture_telemetry = telemetry;
  return run_scenario_campaign(shrunk_ckpt_sweep(replicas), options,
                               scenario::sweep_by_name("ckpt").replica);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(CkptCampaign, CsvAndMergedLedgerByteIdenticalAcrossJobCounts) {
  const auto render = [](int jobs) {
    const scenario::ScenarioCampaignResult result =
        run_ckpt_sweep(/*replicas=*/1, jobs, /*telemetry=*/true);
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
  EXPECT_EQ(csv1.size(), 5798u);
  EXPECT_EQ(fnv1a(csv1), 1251098968202069101ull);
  EXPECT_EQ(ledger1.size(), 71264u);
  EXPECT_EQ(fnv1a(ledger1), 14828602336848495821ull);
  // The data plane's machinery is visible in the merged ledger.
  EXPECT_NE(ledger1.find("\"kind\":\"ckpt_compact\""), std::string::npos);
  EXPECT_NE(ledger1.find("\"kind\":\"ckpt_restore\""), std::string::npos);
}

TEST(CkptCampaign, RotPressureDrivesQuarantinesInTheEnabledArm) {
  const scenario::ScenarioCampaignResult result =
      run_ckpt_sweep(/*replicas=*/2, /*jobs=*/2, /*telemetry=*/false);
  // First axis slowest: cells are {off, on} x {rot 0, rot 0.25}.
  ASSERT_EQ(result.cells.size(), 4u);
  const auto mean = [&](std::size_t cell, const char* metric) {
    return result.aggregates[cell].metrics.at(metric).running.mean();
  };
  // Disabled arm never touches the plane.
  EXPECT_EQ(mean(0, "ckpt_base_writes"), 0.0);
  EXPECT_EQ(mean(1, "ckpt_base_writes"), 0.0);
  // Enabled arm writes generations in both cells...
  EXPECT_GT(mean(2, "ckpt_base_writes"), 0.0);
  EXPECT_GT(mean(3, "ckpt_base_writes"), 0.0);
  // ...and only the corrupted cell quarantines.
  EXPECT_EQ(mean(2, "ckpt_quarantines"), 0.0);
  EXPECT_GT(mean(3, "ckpt_quarantines"), 0.0);
}

}  // namespace
}  // namespace cmdare
