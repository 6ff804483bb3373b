// ScenarioSpec text codec: lossless round-trip over every field, and
// malformed input surfacing as line-anchored diagnostics, never throws.
#include <gtest/gtest.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/catalog.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::scenario {
namespace {

ScenarioSpec minimal_valid() {
  ScenarioSpec spec;
  spec.workers = {{2, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  return spec;
}

/// Every field moved off its default value (both worker-group and
/// stockout lists carry two entries to exercise the comma-joined forms).
ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "full-coverage";
  spec.kind = HarnessKind::kSession;
  spec.seed = 987654321;
  spec.model = "resnet-32";
  spec.workers = {{3, cloud::GpuType::kP100, cloud::Region::kUsEast1, true},
                  {1, cloud::GpuType::kV100, cloud::Region::kEuropeWest4,
                   false}};
  spec.ps_count = 2;
  spec.max_steps = 12345;
  spec.checkpoint_interval_steps = 500;
  spec.checkpoint_max_retries = 5;
  spec.ft_mode = train::FaultToleranceMode::kVanillaTf;
  spec.ps_region = cloud::Region::kUsWest1;
  spec.auto_replace = false;
  spec.replacement_context = cloud::RequestContext::kDelayedAfterRevocation;
  spec.resilience.max_launch_attempts = 7;
  spec.resilience.backoff_base_seconds = 2.5;
  spec.resilience.backoff_multiplier = 3.0;
  spec.resilience.backoff_max_seconds = 120.25;
  spec.resilience.backoff_jitter = 0.125;
  spec.resilience.stockouts_before_fallback = 4;
  spec.resilience.allow_region_fallback = false;
  spec.resilience.allow_gpu_fallback = false;
  spec.resilience.allow_on_demand_fallback = false;
  spec.utc_start_hour = 3.7512345;
  spec.horizon_hours = 12.5;
  spec.faults.launch_error_rate = 0.01;
  spec.faults.upload_error_rate = 0.02;
  spec.faults.upload_slowdown_rate = 0.03;
  spec.faults.upload_slowdown_factor = 4.5;
  spec.faults.restore_error_rate = 0.0425;
  spec.faults.abrupt_kill_rate = 0.05;
  faults::StockoutWindow first;
  first.region = cloud::Region::kUsEast1;
  first.gpu = cloud::GpuType::kK80;
  first.start_s = 100.5;
  first.end_s = 400.75;
  faults::StockoutWindow second;
  second.region = cloud::Region::kAsiaEast1;
  second.gpu.reset();
  second.start_s = 0.0;
  second.end_s = 50.0;
  spec.faults.stockouts = {first, second};
  faults::OutageStorm storm_a;
  storm_a.region = cloud::Region::kUsEast1;
  storm_a.gpu = cloud::GpuType::kP100;
  storm_a.start_s = 250.5;
  storm_a.end_s = 900.25;
  storm_a.kill_fraction = 0.625;
  storm_a.hazard_multiplier = 3.5;
  storm_a.startup_slowdown = 2.25;
  faults::OutageStorm storm_b;
  storm_b.region = cloud::Region::kAsiaEast1;
  storm_b.gpu.reset();
  storm_b.start_s = 0.0;
  storm_b.end_s = 75.0;
  spec.faults.storms = {storm_a, storm_b};
  spec.faults.bit_rot_rate = 0.015;
  spec.faults.torn_write_rate = 0.025;
  faults::TierOutageWindow outage_a;
  outage_a.tier = cloud::StorageTier::kCold;
  outage_a.start_s = 10.5;
  outage_a.end_s = 90.25;
  faults::TierOutageWindow outage_b;
  outage_b.tier = cloud::StorageTier::kRegional;
  outage_b.start_s = 0.0;
  outage_b.end_s = 30.0;
  spec.faults.tier_outages = {outage_a, outage_b};
  spec.ckpt.enabled = true;
  spec.ckpt.delta_ratio = 0.2;
  spec.ckpt.max_delta_chain = 6;
  spec.ckpt.max_generations = 4;
  spec.store_tiers.local.latency_s = 0.025;
  spec.store_tiers.local.bandwidth_gbps = 12.5;
  spec.store_tiers.local.usd_per_gb = 0.005;
  spec.store_tiers.regional.latency_s = 1.25;
  spec.store_tiers.regional.bandwidth_gbps = 0.45;
  spec.store_tiers.regional.usd_per_gb = 0.03;
  spec.store_tiers.cold.latency_s = 6.5;
  spec.store_tiers.cold.bandwidth_gbps = 0.05;
  spec.store_tiers.cold.usd_per_gb = 0.002;
  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 7.5;
  spec.supervision.heartbeat.timeout_s = 45.25;
  spec.supervision.heartbeat.jitter = 0.25;
  spec.supervision.heartbeat.phi_threshold = 8.5;
  spec.supervision.heartbeat.sweep_period_s = 5.125;
  spec.supervision.hazard.halflife_hours = 3.5;
  spec.supervision.hazard.prior_weight_hours = 12.25;
  spec.supervision.hazard.score_halflife_hours = 1.75;
  spec.supervision.checkpoint.retune_period_s = 600.5;
  spec.supervision.checkpoint.hysteresis = 0.35;
  spec.supervision.checkpoint.min_interval_steps = 75;
  spec.supervision.score_replacement = true;
  spec.supervision.hedged_replacement = true;
  spec.supervision.elastic.enabled = true;
  spec.supervision.elastic.min_workers = 2;
  spec.supervision.elastic.breaker.open_after_failures = 4;
  spec.supervision.elastic.breaker.backoff_s = 450.5;
  spec.supervision.elastic.breaker.backoff_multiplier = 3.0;
  spec.supervision.elastic.breaker.max_backoff_s = 5400.25;
  spec.supervision.elastic.grow_hysteresis_s = 240.5;
  spec.supervision.elastic.futility_threshold = 0.75;
  spec.supervision.elastic.deadline_hours = 10.5;
  spec.fleet.tenants = 48;
  spec.fleet.demand = 1.75;
  spec.fleet.workers_per_tenant = 3;
  spec.fleet.min_steps = 600;
  spec.fleet.max_steps = 4400;
  spec.fleet.checkpoint_interval_steps = 250;
  spec.fleet.checkpoint_seconds = 12.5;
  spec.fleet.restore_seconds = 42.25;
  spec.fleet.deadline_hours = 6.5;
  spec.fleet.model_mix = true;
  spec.fleet.capacity_per_pool = 20;
  spec.fleet.price_sensitivity = 1.5;
  spec.fleet.price_exponent = 3.0;
  spec.fleet.capacity_dip = 0.375;
  spec.fleet.bid_spread = 0.75;
  spec.fleet.market_period_s = 90.5;
  spec.fleet.scheduler = fleet::SchedulerPolicy::kRoundRobin;
  spec.fleet.migrate_period_s = 1200.0;
  spec.fleet.migrate_gain = 0.3;
  spec.fleet.hazard_revocations = true;
  return spec;
}

TEST(ScenarioSpec, RoundTripMinimalSpec) {
  const ScenarioSpec spec = minimal_valid();
  const ParseResult result = parse(serialize(spec));
  EXPECT_TRUE(result.ok()) << serialize(spec);
  EXPECT_EQ(result.spec, spec);
}

TEST(ScenarioSpec, RoundTripEveryField) {
  const ScenarioSpec spec = full_spec();
  const std::string text = serialize(spec);
  const ParseResult result = parse(text);
  EXPECT_TRUE(result.ok()) << text;
  EXPECT_EQ(result.spec, spec) << text;
  // And the text form itself is a fixed point.
  EXPECT_EQ(serialize(result.spec), text);
}

TEST(ScenarioSpec, SerializePinsEveryKeyInOrder) {
  // The canonical text form, byte for byte: every key once, in the fixed
  // emission order, with each value in its canonical spelling.
  const std::string expected =
      "name = full-coverage\n"
      "kind = session\n"
      "seed = 987654321\n"
      "model = resnet-32\n"
      "workers = 3 x P100 @ us-east1, 1 x V100 @ europe-west4 on-demand\n"
      "ps_count = 2\n"
      "max_steps = 12345\n"
      "checkpoint_interval_steps = 500\n"
      "checkpoint_max_retries = 5\n"
      "ft_mode = vanilla-tf\n"
      "ps_region = us-west1\n"
      "auto_replace = false\n"
      "replacement_context = delayed\n"
      "max_launch_attempts = 7\n"
      "backoff_base_seconds = 2.5\n"
      "backoff_multiplier = 3\n"
      "backoff_max_seconds = 120.25\n"
      "backoff_jitter = 0.125\n"
      "stockouts_before_fallback = 4\n"
      "allow_region_fallback = false\n"
      "allow_gpu_fallback = false\n"
      "allow_on_demand_fallback = false\n"
      "utc_start_hour = 3.7512345\n"
      "horizon_hours = 12.5\n"
      "launch_error_rate = 0.01\n"
      "upload_error_rate = 0.02\n"
      "upload_slowdown_rate = 0.03\n"
      "upload_slowdown_factor = 4.5\n"
      "restore_error_rate = 0.0425\n"
      "abrupt_kill_rate = 0.05\n"
      "stockouts = us-east1/K80 @ 100.5..400.75, asia-east1/* @ 0..50\n"
      "storms = us-east1/P100 @ 250.5..900.25 kill=0.625 hazard=3.5 "
      "slow=2.25, asia-east1/* @ 0..75 kill=1 hazard=1 slow=1\n"
      "ckpt.enabled = true\n"
      "ckpt.delta_ratio = 0.2\n"
      "ckpt.max_delta_chain = 6\n"
      "ckpt.max_generations = 4\n"
      "ckpt.bit_rot_rate = 0.015\n"
      "ckpt.torn_write_rate = 0.025\n"
      "ckpt.tier_outages = cold @ 10.5..90.25, regional @ 0..30\n"
      "store.tier.local.latency_s = 0.025\n"
      "store.tier.local.bandwidth_gbps = 12.5\n"
      "store.tier.local.usd_per_gb = 0.005\n"
      "store.tier.regional.latency_s = 1.25\n"
      "store.tier.regional.bandwidth_gbps = 0.45\n"
      "store.tier.regional.usd_per_gb = 0.03\n"
      "store.tier.cold.latency_s = 6.5\n"
      "store.tier.cold.bandwidth_gbps = 0.05\n"
      "store.tier.cold.usd_per_gb = 0.002\n"
      "fleet.tenants = 48\n"
      "fleet.demand = 1.75\n"
      "fleet.workers_per_tenant = 3\n"
      "fleet.min_steps = 600\n"
      "fleet.max_steps = 4400\n"
      "fleet.checkpoint_interval_steps = 250\n"
      "fleet.checkpoint_seconds = 12.5\n"
      "fleet.restore_seconds = 42.25\n"
      "fleet.deadline_hours = 6.5\n"
      "fleet.model_mix = true\n"
      "fleet.capacity_per_pool = 20\n"
      "fleet.price_sensitivity = 1.5\n"
      "fleet.price_exponent = 3\n"
      "fleet.capacity_dip = 0.375\n"
      "fleet.bid_spread = 0.75\n"
      "fleet.market_period_s = 90.5\n"
      "fleet.scheduler = round-robin\n"
      "fleet.migrate_period_s = 1200\n"
      "fleet.migrate_gain = 0.3\n"
      "fleet.hazard_revocations = true\n"
      "supervise.enabled = true\n"
      "supervise.heartbeat_period_s = 7.5\n"
      "supervise.heartbeat_timeout_s = 45.25\n"
      "supervise.heartbeat_jitter = 0.25\n"
      "supervise.phi_threshold = 8.5\n"
      "supervise.sweep_period_s = 5.125\n"
      "supervise.hazard_halflife_hours = 3.5\n"
      "supervise.hazard_prior_weight_hours = 12.25\n"
      "supervise.score_halflife_hours = 1.75\n"
      "supervise.retune_period_s = 600.5\n"
      "supervise.retune_hysteresis = 0.35\n"
      "supervise.min_interval_steps = 75\n"
      "supervise.score_replacement = true\n"
      "supervise.hedged_replacement = true\n"
      "supervise.elastic.enabled = true\n"
      "supervise.elastic.min_workers = 2\n"
      "supervise.elastic.breaker_failures = 4\n"
      "supervise.elastic.breaker_backoff_s = 450.5\n"
      "supervise.elastic.breaker_backoff_multiplier = 3\n"
      "supervise.elastic.breaker_max_backoff_s = 5400.25\n"
      "supervise.elastic.grow_hysteresis_s = 240.5\n"
      "supervise.elastic.futility_threshold = 0.75\n"
      "supervise.elastic.deadline_hours = 10.5\n";
  EXPECT_EQ(serialize(full_spec()), expected);
}

TEST(ScenarioSpec, CheckedInScenarioFilesParseCleanAndAreFixedPoints) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(CMDARE_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") paths.push_back(entry.path());
  }
  ASSERT_FALSE(paths.empty()) << CMDARE_SCENARIO_DIR;
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const ParseResult result = parse(text.str());
    for (const Diagnostic& d : result.diagnostics) {
      ADD_FAILURE() << path << ":" << d.line << ": " << d.message;
    }
    const std::string canonical = serialize(result.spec);
    const ParseResult again = parse(canonical);
    EXPECT_TRUE(again.ok()) << path;
    EXPECT_EQ(again.spec, result.spec) << path;
    EXPECT_EQ(serialize(again.spec), canonical) << path;
  }
}

TEST(ScenarioSpec, CompiledInScenarioFilesAreTheCheckedInBytes) {
  // The configure-time embedding must neither drop a file nor rewrite a
  // byte (a `\`, `@` or `;` in CMake's hands).
  std::map<std::string, std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(CMDARE_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    on_disk[entry.path().stem().string()] = text.str();
  }
  std::map<std::string, std::string> compiled_in;
  for (const ScenarioFile& file : scenario_files()) {
    compiled_in[std::string(file.stem)] = std::string(file.text);
  }
  EXPECT_EQ(compiled_in, on_disk);
  EXPECT_THROW(checked_in_scenario("no_such_file"), std::invalid_argument);
}

TEST(ScenarioSpec, RoundTripSurvivesNoisyFormatting) {
  const ParseResult result = parse(
      "# a comment line\n"
      "  name =  noisy  \n"
      "kind=session   # trailing comment\n"
      "\n"
      "workers = 2 x k80 @ us-central1\n"
      "max_steps = 10\n");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.spec.name, "noisy");
  EXPECT_EQ(result.spec.kind, HarnessKind::kSession);
  ASSERT_EQ(result.spec.workers.size(), 1u);
  EXPECT_EQ(result.spec.workers[0].count, 2);
  EXPECT_EQ(result.spec.workers[0].gpu, cloud::GpuType::kK80);
  EXPECT_EQ(result.spec.max_steps, 10);
}

TEST(ScenarioSpec, DiagnosticsCarryLineNumbers) {
  const ParseResult result = parse(
      "kind = session\n"          // 1: fine
      "this line has no equals\n"  // 2: malformed
      "fault_rate = 2.0\n"         // 3: out of range
      "mystery_key = 1\n"          // 4: unknown key
      "max_steps = 10\n");         // 5: fine
  ASSERT_EQ(result.diagnostics.size(), 3u);
  EXPECT_EQ(result.diagnostics[0].line, 2);
  EXPECT_NE(result.diagnostics[0].message.find("key = value"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[1].line, 3);
  EXPECT_NE(result.diagnostics[1].message.find("fault_rate"),
            std::string::npos);
  EXPECT_EQ(result.diagnostics[2].line, 4);
  EXPECT_NE(result.diagnostics[2].message.find("mystery_key"),
            std::string::npos);
  // Lines that did parse still landed in the spec.
  EXPECT_EQ(result.spec.kind, HarnessKind::kSession);
  EXPECT_EQ(result.spec.max_steps, 10);
}

TEST(ScenarioSpec, SemanticValidationReportsAtLineZero) {
  // kind=run with no workers: per-line parsing succeeds, validate()
  // appends a file-level diagnostic.
  const ParseResult result = parse("kind = run\nmax_steps = 10\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.diagnostics[0].line, 0);
  EXPECT_NE(result.diagnostics[0].message.find("worker"), std::string::npos);
}

TEST(ScenarioSpec, SetFieldRejectsOutOfRangeValues) {
  ScenarioSpec spec = minimal_valid();
  EXPECT_TRUE(set_field(spec, "utc_start_hour", "24").has_value());
  EXPECT_TRUE(set_field(spec, "backoff_jitter", "1.5").has_value());
  EXPECT_TRUE(set_field(spec, "ps_count", "0").has_value());
  EXPECT_TRUE(set_field(spec, "seed", "-3").has_value());
  EXPECT_TRUE(set_field(spec, "launch_error_rate", "nope").has_value());
  EXPECT_TRUE(set_field(spec, "kind", "banana").has_value());
  EXPECT_TRUE(set_field(spec, "supervise.enabled", "maybe").has_value());
  EXPECT_TRUE(set_field(spec, "supervise.heartbeat_period_s", "0").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.heartbeat_timeout_s", "nan").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.heartbeat_jitter", "1.5").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.hazard_halflife_hours", "inf").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.retune_hysteresis", "-0.1").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.min_interval_steps", "0").has_value());
  // None of the rejected values touched the spec.
  EXPECT_EQ(spec, minimal_valid());
}

TEST(ScenarioSpec, RejectsValuesTheTextFormCannotCarry) {
  // validate() accepts only values set_field() could have stored.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScenarioSpec spec = minimal_valid();
  spec.kind = HarnessKind::kSession;
  spec.max_steps = 0;
  spec.horizon_hours = nan;
  EXPECT_FALSE(validate(spec).empty());
  spec = minimal_valid();
  spec.faults.launch_error_rate = nan;
  EXPECT_FALSE(validate(spec).empty());
  spec = minimal_valid();
  spec.utc_start_hour = nan;
  EXPECT_FALSE(validate(spec).empty());

  // Window bounds and storm modifiers must be finite numbers.
  spec = minimal_valid();
  EXPECT_TRUE(
      set_field(spec, "stockouts", "us-central1/K80 @ nan..inf").has_value());
  EXPECT_TRUE(set_field(spec, "storms", "us-central1/K80 @ 10..20 kill=nan")
                  .has_value());
  EXPECT_TRUE(
      set_field(spec, "ckpt.tier_outages", "regional @ inf..inf").has_value());
  // "on-demand" is a separate word, not a region-name suffix.
  EXPECT_TRUE(set_field(spec, "workers", "2 x K80 @ us-central1on-demand")
                  .has_value());
  // A '#' would start a comment when the text form is read back.
  EXPECT_TRUE(set_field(spec, "name", "demo#1").has_value());
  EXPECT_EQ(spec, minimal_valid());
}

TEST(ScenarioSpec, EnumNamesMatchIgnoringCase) {
  ScenarioSpec spec = minimal_valid();
  EXPECT_FALSE(set_field(spec, "kind", "Session").has_value());
  EXPECT_FALSE(set_field(spec, "ft_mode", "VANILLA-TF").has_value());
  EXPECT_FALSE(set_field(spec, "replacement_context", "Delayed").has_value());
  EXPECT_FALSE(set_field(spec, "fleet.scheduler", "Round-Robin").has_value());
  EXPECT_FALSE(set_field(spec, "ckpt.tier_outage", "Cold @ 0..1").has_value());
  EXPECT_EQ(spec.kind, HarnessKind::kSession);
  EXPECT_EQ(spec.ft_mode, train::FaultToleranceMode::kVanillaTf);
  EXPECT_EQ(spec.replacement_context,
            cloud::RequestContext::kDelayedAfterRevocation);
  EXPECT_EQ(spec.fleet.scheduler, fleet::SchedulerPolicy::kRoundRobin);
  ASSERT_EQ(spec.faults.tier_outages.size(), 1u);
  EXPECT_EQ(spec.faults.tier_outages[0].tier, cloud::StorageTier::kCold);
  // The text form keeps the canonical spelling.
  EXPECT_NE(serialize(spec).find("\nkind = session\n"), std::string::npos);
}

TEST(ScenarioSpec, EveryKeyRejectsGarbageAndNonFiniteNumbers) {
  // The key list comes from the codec itself, so a new key is covered
  // without touching this test.
  const ScenarioSpec original = full_spec();
  std::istringstream lines(serialize(original));
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find(" = ");
    ASSERT_NE(eq, std::string::npos) << line;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    ScenarioSpec spec = original;
    if (key != "name" && key != "model") {
      EXPECT_TRUE(set_field(spec, key, "abc").has_value()) << key;
    }
    double number = 0.0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), number);
    if (ec == std::errc() && end == value.data() + value.size()) {
      EXPECT_TRUE(set_field(spec, key, "nan").has_value()) << key;
      EXPECT_TRUE(set_field(spec, key, "inf").has_value()) << key;
    }
    EXPECT_EQ(spec, original) << key;
  }
}

TEST(ScenarioSpec, ValidateFlagsDegenerateSupervision) {
  // A timeout at or below the heartbeat period would flag every healthy
  // worker on the first sweep; validate() rejects it before a harness
  // ever builds the detector.
  ScenarioSpec spec = minimal_valid();
  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 30.0;
  spec.supervision.heartbeat.timeout_s = 20.0;
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("heartbeat_timeout"), std::string::npos);
  // Disabled supervision skips the checks entirely (the degenerate
  // values are inert).
  spec.supervision.enabled = false;
  EXPECT_TRUE(validate(spec).empty());
}

TEST(ScenarioSpec, WorkerAndStockoutAppendForms) {
  ScenarioSpec spec = minimal_valid();
  EXPECT_FALSE(set_field(spec, "worker", "1 x V100 @ us-west1").has_value());
  ASSERT_EQ(spec.workers.size(), 2u);
  EXPECT_EQ(spec.workers[1].gpu, cloud::GpuType::kV100);
  EXPECT_EQ(spec.workers[1].region, cloud::Region::kUsWest1);

  EXPECT_FALSE(
      set_field(spec, "stockout", "us-central1/* @ 10..20").has_value());
  ASSERT_EQ(spec.faults.stockouts.size(), 1u);
  EXPECT_FALSE(spec.faults.stockouts[0].gpu.has_value());
  EXPECT_DOUBLE_EQ(spec.faults.stockouts[0].start_s, 10.0);
  EXPECT_DOUBLE_EQ(spec.faults.stockouts[0].end_s, 20.0);
}

TEST(ScenarioSpec, StormAppendFormParsesScopeAndModifiers) {
  ScenarioSpec spec = minimal_valid();
  // Wildcard scope, modifiers at their defaults.
  EXPECT_FALSE(set_field(spec, "storm", "us-central1/* @ 10..20").has_value());
  ASSERT_EQ(spec.faults.storms.size(), 1u);
  EXPECT_FALSE(spec.faults.storms[0].gpu.has_value());
  EXPECT_DOUBLE_EQ(spec.faults.storms[0].start_s, 10.0);
  EXPECT_DOUBLE_EQ(spec.faults.storms[0].end_s, 20.0);
  EXPECT_DOUBLE_EQ(spec.faults.storms[0].kill_fraction, 1.0);
  EXPECT_DOUBLE_EQ(spec.faults.storms[0].hazard_multiplier, 1.0);
  EXPECT_DOUBLE_EQ(spec.faults.storms[0].startup_slowdown, 1.0);
  // Explicit scope and modifiers, any order.
  EXPECT_FALSE(set_field(spec, "storm",
                         "us-east1/P100 @ 100..400 slow=2 kill=0.5 hazard=3")
                   .has_value());
  ASSERT_EQ(spec.faults.storms.size(), 2u);
  EXPECT_EQ(spec.faults.storms[1].gpu, cloud::GpuType::kP100);
  EXPECT_DOUBLE_EQ(spec.faults.storms[1].kill_fraction, 0.5);
  EXPECT_DOUBLE_EQ(spec.faults.storms[1].hazard_multiplier, 3.0);
  EXPECT_DOUBLE_EQ(spec.faults.storms[1].startup_slowdown, 2.0);
}

TEST(ScenarioSpec, StormAndElasticKeysRejectOutOfRangeValues) {
  ScenarioSpec spec = minimal_valid();
  EXPECT_TRUE(set_field(spec, "storm", "garbage").has_value());
  EXPECT_TRUE(set_field(spec, "storm", "us-central1/K80 @ 10..5").has_value());
  EXPECT_TRUE(set_field(spec, "storm", "us-central1/K80 @ -5..10").has_value());
  EXPECT_TRUE(
      set_field(spec, "storm", "us-central1/K80 @ 0..10 kill=1.5").has_value());
  EXPECT_TRUE(set_field(spec, "storm", "us-central1/K80 @ 0..10 hazard=0.5")
                  .has_value());
  EXPECT_TRUE(
      set_field(spec, "storm", "us-central1/K80 @ 0..10 slow=0").has_value());
  EXPECT_TRUE(set_field(spec, "storm", "nowhere/K80 @ 0..10").has_value());
  EXPECT_TRUE(set_field(spec, "supervise.elastic.enabled", "maybe").has_value());
  EXPECT_TRUE(set_field(spec, "supervise.elastic.min_workers", "0").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.elastic.breaker_failures", "0").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.elastic.breaker_backoff_s", "0").has_value());
  EXPECT_TRUE(set_field(spec, "supervise.elastic.breaker_backoff_multiplier",
                        "0.5")
                  .has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.elastic.grow_hysteresis_s", "-1").has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.elastic.futility_threshold", "nan")
          .has_value());
  EXPECT_TRUE(
      set_field(spec, "supervise.elastic.deadline_hours", "-2").has_value());
  // None of the rejected values touched the spec.
  EXPECT_EQ(spec, minimal_valid());
}

TEST(ScenarioSpec, CkptKeysParseAndRoundTrip) {
  ScenarioSpec spec = minimal_valid();
  EXPECT_FALSE(set_field(spec, "ckpt.enabled", "true").has_value());
  EXPECT_FALSE(set_field(spec, "ckpt.delta_ratio", "0.25").has_value());
  EXPECT_FALSE(set_field(spec, "ckpt.max_delta_chain", "6").has_value());
  EXPECT_FALSE(set_field(spec, "ckpt.max_generations", "5").has_value());
  EXPECT_FALSE(set_field(spec, "ckpt.bit_rot_rate", "0.1").has_value());
  EXPECT_FALSE(set_field(spec, "ckpt.torn_write_rate", "0.05").has_value());
  EXPECT_TRUE(spec.ckpt.enabled);
  EXPECT_DOUBLE_EQ(spec.ckpt.delta_ratio, 0.25);
  EXPECT_EQ(spec.ckpt.max_delta_chain, 6);
  EXPECT_EQ(spec.ckpt.max_generations, 5);
  EXPECT_DOUBLE_EQ(spec.faults.bit_rot_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.faults.torn_write_rate, 0.05);

  // The appendable outage form, comma-split like stockouts.
  EXPECT_FALSE(set_field(spec, "ckpt.tier_outages",
                         "regional @ 100..200, cold @ 0..50")
                   .has_value());
  ASSERT_EQ(spec.faults.tier_outages.size(), 2u);
  EXPECT_EQ(spec.faults.tier_outages[0].tier, cloud::StorageTier::kRegional);
  EXPECT_DOUBLE_EQ(spec.faults.tier_outages[0].start_s, 100.0);
  EXPECT_DOUBLE_EQ(spec.faults.tier_outages[0].end_s, 200.0);
  EXPECT_EQ(spec.faults.tier_outages[1].tier, cloud::StorageTier::kCold);
  EXPECT_FALSE(
      set_field(spec, "ckpt.tier_outage", "local @ 5..6").has_value());
  ASSERT_EQ(spec.faults.tier_outages.size(), 3u);
  EXPECT_EQ(spec.faults.tier_outages[2].tier, cloud::StorageTier::kLocal);

  // Per-tier store model keys.
  EXPECT_FALSE(
      set_field(spec, "store.tier.local.latency_s", "0.125").has_value());
  EXPECT_FALSE(set_field(spec, "store.tier.regional.bandwidth_gbps", "0.5")
                   .has_value());
  EXPECT_FALSE(
      set_field(spec, "store.tier.cold.usd_per_gb", "0.001").has_value());
  EXPECT_DOUBLE_EQ(spec.store_tiers.local.latency_s, 0.125);
  EXPECT_DOUBLE_EQ(spec.store_tiers.regional.bandwidth_gbps, 0.5);
  EXPECT_DOUBLE_EQ(spec.store_tiers.cold.usd_per_gb, 0.001);

  // Everything survives serialize -> parse.
  const ParseResult result = parse(serialize(spec));
  EXPECT_TRUE(result.ok()) << serialize(spec);
  EXPECT_EQ(result.spec, spec);
}

TEST(ScenarioSpec, CkptKeysRejectOutOfRangeValues) {
  ScenarioSpec spec = minimal_valid();
  EXPECT_TRUE(set_field(spec, "ckpt.enabled", "maybe").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.delta_ratio", "0").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.delta_ratio", "1.5").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.delta_ratio", "nan").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.max_delta_chain", "0").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.max_generations", "0").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.bit_rot_rate", "1.5").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.bit_rot_rate", "-0.1").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.torn_write_rate", "2").has_value());
  EXPECT_TRUE(set_field(spec, "ckpt.tier_outages", "garbage").has_value());
  EXPECT_TRUE(
      set_field(spec, "ckpt.tier_outages", "orbital @ 0..10").has_value());
  EXPECT_TRUE(
      set_field(spec, "ckpt.tier_outages", "regional @ 10..5").has_value());
  EXPECT_TRUE(
      set_field(spec, "ckpt.tier_outages", "regional @ -5..5").has_value());
  EXPECT_TRUE(
      set_field(spec, "store.tier.local.latency_s", "-1").has_value());
  EXPECT_TRUE(
      set_field(spec, "store.tier.local.bandwidth_gbps", "0").has_value());
  EXPECT_TRUE(
      set_field(spec, "store.tier.regional.usd_per_gb", "-0.5").has_value());
  EXPECT_TRUE(
      set_field(spec, "store.tier.orbital.latency_s", "1").has_value());
  EXPECT_TRUE(set_field(spec, "store.tier.local.volume", "1").has_value());
  // None of the rejected values touched the spec.
  EXPECT_EQ(spec, minimal_valid());
}

TEST(ScenarioSpec, ValidateFlagsDegenerateCkptConfig) {
  ScenarioSpec spec = minimal_valid();
  spec.ckpt.enabled = true;
  spec.ckpt.delta_ratio = 2.0;
  auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("delta_ratio"), std::string::npos);

  spec = minimal_valid();
  spec.ckpt.enabled = true;
  spec.store_tiers.cold.bandwidth_gbps = 0.0;
  errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("bandwidth"), std::string::npos);

  spec = minimal_valid();
  faults::TierOutageWindow window;
  window.start_s = 50.0;
  window.end_s = 10.0;  // end < start
  spec.faults.tier_outages.push_back(window);
  errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("tier outage"), std::string::npos);
}

TEST(ScenarioSpec, ValidateFlagsElasticWithoutSupervision) {
  ScenarioSpec spec = minimal_valid();
  spec.supervision.enabled = false;
  spec.supervision.elastic.enabled = true;
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("elastic"), std::string::npos);

  // Breaker backoff cap below the base backoff is rejected too.
  spec.supervision.enabled = true;
  spec.supervision.elastic.breaker.backoff_s = 600.0;
  spec.supervision.elastic.breaker.max_backoff_s = 60.0;
  const auto breaker_errors = validate(spec);
  ASSERT_FALSE(breaker_errors.empty());
  EXPECT_NE(breaker_errors[0].find("max_backoff"), std::string::npos);
}

TEST(ScenarioSpec, FaultRateShorthandSetsEveryRateKeepsWindows) {
  ScenarioSpec spec = minimal_valid();
  ASSERT_FALSE(
      set_field(spec, "stockout", "us-central1/K80 @ 0..100").has_value());
  ASSERT_FALSE(set_field(spec, "fault_rate", "0.25").has_value());
  EXPECT_DOUBLE_EQ(spec.faults.launch_error_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.faults.upload_error_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.faults.upload_slowdown_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.faults.restore_error_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.faults.abrupt_kill_rate, 0.25);
  EXPECT_EQ(spec.faults.stockouts.size(), 1u);  // shorthand keeps windows
  EXPECT_DOUBLE_EQ(spec.faults.upload_slowdown_factor, 3.0);  // untouched
}

TEST(ScenarioSpec, ValidateFlagsUnknownModel) {
  ScenarioSpec spec = minimal_valid();
  spec.model = "alexnet-9000";
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("alexnet-9000"), std::string::npos);
}

TEST(ScenarioSpec, ValidateFlagsNonTerminatingRun) {
  ScenarioSpec spec = minimal_valid();
  spec.max_steps = 0;
  spec.horizon_hours = 0.0;
  EXPECT_FALSE(validate(spec).empty());
  spec.horizon_hours = 1.0;  // a deadline makes it terminate
  EXPECT_TRUE(validate(spec).empty());
}

TEST(ScenarioSpec, FleetKindNeedsNoWorkersAndSelfTerminates) {
  // A bare fleet spec is valid: tenants drive their own placement (no
  // worker groups) and the fleet drains on its own (no horizon needed).
  const ParseResult result = parse("kind = fleet\n");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.spec.kind, HarnessKind::kFleet);
  EXPECT_TRUE(validate(result.spec).empty());
}

TEST(ScenarioSpec, FleetKeysRejectOutOfRangeValues) {
  ScenarioSpec spec = minimal_valid();
  EXPECT_TRUE(set_field(spec, "fleet.tenants", "0").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.demand", "0").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.demand", "65").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.workers_per_tenant", "0").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.min_steps", "0").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.checkpoint_seconds", "-1").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.deadline_hours", "0").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.model_mix", "maybe").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.capacity_per_pool", "0").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.capacity_dip", "1.5").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.market_period_s", "0").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.scheduler", "cheapest").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.migrate_gain", "1.5").has_value());
  EXPECT_TRUE(set_field(spec, "fleet.hazard_revocations", "2").has_value());
  // None of the rejected values touched the spec.
  EXPECT_EQ(spec, minimal_valid());
}

TEST(ScenarioSpec, ValidateFlagsFleetSemantics) {
  ScenarioSpec spec = minimal_valid();
  spec.kind = HarnessKind::kFleet;
  spec.fleet.min_steps = 100;
  spec.fleet.max_steps = 50;
  auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("min_steps"), std::string::npos);

  spec.fleet = fleet::FleetConfig{};
  // 10 workers can never fit a 12-slot pool dipped to 9 slots.
  spec.fleet.workers_per_tenant = 10;
  spec.fleet.capacity_per_pool = 12;
  spec.fleet.capacity_dip = 0.25;
  errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("workers_per_tenant"), std::string::npos);
  // The same config under a non-fleet kind is inert.
  spec.kind = HarnessKind::kSession;
  EXPECT_TRUE(validate(spec).empty());
}

TEST(ScenarioSpec, FleetSchedulerPolicyNamesRoundTrip) {
  EXPECT_STREQ(
      fleet::scheduler_policy_name(fleet::SchedulerPolicy::kRoundRobin),
      "round-robin");
  EXPECT_STREQ(
      fleet::scheduler_policy_name(fleet::SchedulerPolicy::kCostOptimal),
      "cost-optimal");
}

TEST(ScenarioSweep, ExpandTakesCartesianProductFirstAxisSlowest) {
  ScenarioSweep sweep;
  sweep.base = minimal_valid();
  sweep.axes = {{"fault_rate", {"0", "0.1"}}, {"max_steps", {"10", "20", "30"}}};
  const auto cells = expand(sweep);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_DOUBLE_EQ(cells[0].spec.faults.launch_error_rate, 0.0);
  EXPECT_EQ(cells[0].spec.max_steps, 10);
  EXPECT_EQ(cells[2].spec.max_steps, 30);
  EXPECT_DOUBLE_EQ(cells[3].spec.faults.launch_error_rate, 0.1);
  EXPECT_EQ(cells[3].spec.max_steps, 10);
  EXPECT_EQ(cells[5].label(), "fault_rate=0.1 max_steps=30");
}

TEST(ScenarioSweep, ExpandRejectsBadAxisValues) {
  ScenarioSweep sweep;
  sweep.base = minimal_valid();
  sweep.axes = {{"fault_rate", {"0", "2.0"}}};
  EXPECT_THROW(expand(sweep), std::invalid_argument);
  sweep.axes = {{"no_such_key", {"1"}}};
  EXPECT_THROW(expand(sweep), std::invalid_argument);
  sweep.axes = {{"fault_rate", {}}};
  EXPECT_THROW(expand(sweep), std::invalid_argument);
}

}  // namespace
}  // namespace cmdare::scenario
