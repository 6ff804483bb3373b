#include "scenario/catalog.hpp"

#include <algorithm>
#include <stdexcept>

#include "cloud/revocation.hpp"
#include "scenario/harness.hpp"
#include "stats/descriptive.hpp"

namespace cmdare::scenario {
namespace {

// Shared immutable hazard model: construction calibrates the base rates
// numerically, so do it once; all sampling methods are const and take
// the replica's private rng, making concurrent use safe.
const cloud::RevocationModel& revocation_model() {
  static const cloud::RevocationModel model;
  return model;
}

/// Revocation samples each census replica draws.
constexpr int kSamplesPerReplica = 50;

/// One `1 x <gpu> @ <region>` pool per (region, GPU) pair, region-major.
std::vector<std::string> every_pool() {
  std::vector<std::string> pools;
  for (const cloud::Region region : cloud::kAllRegions) {
    for (const cloud::GpuType gpu : cloud::kAllGpuTypes) {
      pools.push_back(std::string("1 x ") + cloud::gpu_name(gpu) + " @ " +
                      cloud::region_name(region));
    }
  }
  return pools;
}

}  // namespace

exp::ReplicaResult lifetime_replica(const ScenarioCell& cell, int /*replica*/,
                                    util::Rng& rng,
                                    obs::Telemetry* /*telemetry*/) {
  exp::ReplicaResult result;
  const WorkerGroup& pool = cell.spec.workers.at(0);
  if (!cloud::gpu_offered_in_region(pool.region, pool.gpu)) return result;
  for (int i = 0; i < kSamplesPerReplica; ++i) {
    const auto age = revocation_model().sample_revocation_age_seconds(
        pool.region, pool.gpu, cloud::kReferenceLaunchLocalHour, rng);
    const double hours =
        age.value_or(cloud::kMaxTransientLifetimeSeconds) / 3600.0;
    result.observe("lifetime_h", hours);
    result.observe("revoked", age ? 1.0 : 0.0);
  }
  return result;
}

exp::ReplicaResult launch_replica(const ScenarioCell& cell, int /*replica*/,
                                  util::Rng& rng,
                                  obs::Telemetry* /*telemetry*/) {
  exp::ReplicaResult result;
  const WorkerGroup& pool = cell.spec.workers.at(0);
  if (!cloud::gpu_offered_in_region(pool.region, pool.gpu)) return result;
  const double hour =
      cloud::local_hour(pool.region, cell.spec.utc_start_hour, 0.0);
  const double job_seconds = cell.spec.horizon_hours * 3600.0;
  for (int i = 0; i < kSamplesPerReplica; ++i) {
    const auto age = revocation_model().sample_revocation_age_seconds(
        pool.region, pool.gpu, hour, rng);
    result.observe("revoked_in_job", age && *age <= job_seconds ? 1.0 : 0.0);
  }
  return result;
}

ScenarioSpec speed_scenario() {
  ScenarioSpec spec;
  spec.name = "speed";
  spec.kind = HarnessKind::kSession;
  spec.seed = 42;
  spec.model = "resnet-15";
  spec.workers = {{1, cloud::GpuType::kK80, cloud::Region::kUsCentral1,
                   true}};
  spec.max_steps = 800;
  return spec;
}

exp::ReplicaResult speed_replica(const ScenarioCell& cell, int /*replica*/,
                                 util::Rng& rng,
                                 obs::Telemetry* /*telemetry*/) {
  const long steps = cell.spec.max_steps;
  const long discard = std::min<long>(100, steps / 4);

  SimHarness harness(cell.spec, rng);
  harness.run();
  const train::TrainingSession& session = *harness.session();

  exp::ReplicaResult result;
  result.observe("steps_per_s", session.trace().mean_speed(discard, steps));
  const auto intervals = session.trace().worker_step_intervals(0, discard);
  if (!intervals.empty()) {
    result.observe("step_ms", 1000.0 * stats::mean(intervals));
  }
  return result;
}

ScenarioSpec resilience_scenario() {
  ScenarioSpec spec;
  spec.name = "resilience";
  spec.kind = HarnessKind::kRun;
  spec.seed = 77;
  spec.model = "resnet-15";
  spec.workers = {{2, cloud::GpuType::kK80, cloud::Region::kUsCentral1,
                   true}};
  spec.max_steps = 400;
  spec.checkpoint_interval_steps = 100;
  spec.horizon_hours = 48.0;

  // The adversarial cloud: the sweep's fault_rate axis sets uniform
  // rates across every injection site, and one early capacity stockout
  // of the workers' pool is long enough that backoff alone cannot wait
  // it out (stockouts_before_fallback retries reach the ladder first).
  // Fault-free runs finish before it opens.
  faults::StockoutWindow window;
  window.region = cloud::Region::kUsCentral1;
  window.gpu = cloud::GpuType::kK80;
  window.start_s = 300.0;
  window.end_s = 2100.0;
  spec.faults.stockouts.push_back(window);
  return spec;
}

exp::ReplicaResult resilience_replica(const ScenarioCell& cell,
                                      int /*replica*/, util::Rng& rng,
                                      obs::Telemetry* /*telemetry*/) {
  exp::ReplicaResult result;
  const WorkerGroup& pool = cell.spec.workers.at(0);
  if (!cloud::gpu_offered_in_region(pool.region, pool.gpu)) return result;

  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  result.observe("completed", outcome.finished ? 1.0 : 0.0);
  if (outcome.finished) result.observe("makespan_s", outcome.elapsed_seconds);
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("launch_retries", static_cast<double>(outcome.launch_retries));
  result.observe("fallbacks", static_cast<double>(outcome.fallbacks));
  result.observe("slots_abandoned",
                 static_cast<double>(outcome.slots_abandoned));
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("abrupt_kills", static_cast<double>(outcome.abrupt_kills));
  result.observe("checkpoints",
                 static_cast<double>(outcome.checkpoint_blobs));
  result.observe("faults_injected",
                 static_cast<double>(outcome.faults_injected));
  return result;
}

ScenarioSpec detection_scenario() {
  ScenarioSpec spec;
  spec.name = "detection";
  spec.kind = HarnessKind::kRun;
  spec.seed = 2031;
  spec.model = "resnet-15";
  // europe-west1 K80s are the paper's die-young pool (>50% revoked within
  // two hours), so a multi-hour run observes revocations without any
  // injected hazard inflation; abrupt_kill_rate strips the notices.
  spec.workers = {{3, cloud::GpuType::kK80, cloud::Region::kEuropeWest1,
                   true}};
  spec.max_steps = 200000;
  spec.checkpoint_interval_steps = 2000;
  spec.horizon_hours = 24.0;
  spec.faults.abrupt_kill_rate = 1.0;
  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 15.0;
  spec.supervision.heartbeat.timeout_s = 120.0;
  return spec;
}

exp::ReplicaResult detection_replica(const ScenarioCell& cell,
                                     int /*replica*/, util::Rng& rng,
                                     obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("abrupt_kills", static_cast<double>(outcome.abrupt_kills));
  result.observe("detections", static_cast<double>(outcome.detections));
  result.observe("false_detections",
                 static_cast<double>(outcome.false_detections));
  if (outcome.detections > 0) {
    result.observe("detection_latency_s", outcome.detection_latency_p99);
    result.observe("detection_latency_p50_s", outcome.detection_latency_p50);
    result.observe("detection_latency_mean_s", outcome.detection_latency_mean);
  }
  // Recovery spans revocation -> replacement running; for abrupt kills it
  // includes the heartbeat detection latency, which is the quantity the
  // timeout axis trades against false-positive risk.
  if (outcome.mean_recovery_seconds > 0.0) {
    result.observe("ttr_s", outcome.mean_recovery_seconds);
  }
  return result;
}

ScenarioSpec fleet_scenario() {
  ScenarioSpec spec;
  spec.name = "fleet";
  spec.kind = HarnessKind::kFleet;
  spec.seed = 2020;
  spec.model = "resnet-15";
  spec.horizon_hours = 12.0;
  spec.fleet.tenants = 256;
  spec.fleet.workers_per_tenant = 2;
  spec.fleet.min_steps = 20000;
  spec.fleet.max_steps = 80000;
  spec.fleet.checkpoint_interval_steps = 2000;
  spec.fleet.checkpoint_seconds = 10.0;
  spec.fleet.restore_seconds = 30.0;
  spec.fleet.deadline_hours = 8.0;
  spec.fleet.model_mix = true;
  spec.fleet.capacity_per_pool = 24;
  spec.fleet.scheduler = fleet::SchedulerPolicy::kCostOptimal;
  return spec;
}

exp::ReplicaResult fleet_replica(const ScenarioCell& cell, int /*replica*/,
                                 util::Rng& rng,
                                 obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("tenants_finished",
                 static_cast<double>(outcome.tenants_finished));
  result.observe("deadline_hit_rate", outcome.deadline_hit_rate);
  result.observe("usd_per_kstep", outcome.usd_per_kstep);
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("placements", static_cast<double>(outcome.placements));
  result.observe("evictions_reclaim",
                 static_cast<double>(outcome.evictions_reclaim));
  result.observe("evictions_priceout",
                 static_cast<double>(outcome.evictions_priceout));
  result.observe("evictions_total", static_cast<double>(outcome.revocations));
  result.observe("migrations", static_cast<double>(outcome.migrations));
  return result;
}

ScenarioSpec storm_scenario() {
  ScenarioSpec spec;
  spec.name = "storm";
  spec.kind = HarnessKind::kRun;
  spec.seed = 909;
  spec.model = "resnet-15";
  spec.workers = {{4, cloud::GpuType::kK80, cloud::Region::kUsCentral1,
                   true}};
  // ~32 steps/s at full strength: the storm lands mid-run and the
  // post-tail regrow window still matters before the target is hit.
  spec.max_steps = 600000;
  spec.checkpoint_interval_steps = 10000;
  spec.horizon_hours = 12.0;

  // One correlated storm an hour in: a mass-revocation burst followed by
  // a 90-minute stockout tail with inflated hazard and slowed startups.
  // The sweep's `storms` axis overrides this with its intensity grid.
  faults::OutageStorm storm;
  storm.region = cloud::Region::kUsCentral1;
  storm.gpu = cloud::GpuType::kK80;
  storm.start_s = 3600.0;
  storm.end_s = 9000.0;
  storm.kill_fraction = 0.6;
  storm.hazard_multiplier = 4.0;
  storm.startup_slowdown = 2.0;
  spec.faults.storms.push_back(storm);

  // No fallback ladder: the study isolates membership policy, so a
  // stockout either retries into the struck pool (1-for-1 arm, which
  // exhausts max_launch_attempts and abandons the slot) or defers the
  // slot through the breaker (elastic arm).
  spec.resilience.allow_region_fallback = false;
  spec.resilience.allow_gpu_fallback = false;
  spec.resilience.allow_on_demand_fallback = false;

  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 15.0;
  spec.supervision.heartbeat.timeout_s = 120.0;
  // Elastic off in the base; the sweep axis flips it. The knobs below
  // are shared by both arms so the axis isolates the policy itself.
  spec.supervision.elastic.enabled = false;
  spec.supervision.elastic.min_workers = 1;
  spec.supervision.elastic.grow_hysteresis_s = 120.0;
  spec.supervision.elastic.futility_threshold = 0.5;
  return spec;
}

exp::ReplicaResult storm_replica(const ScenarioCell& cell, int /*replica*/,
                                 util::Rng& rng,
                                 obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  // elapsed_seconds is the makespan when finished and the horizon
  // otherwise, so it is directly the time-to-target objective (lower is
  // better; unfinished runs saturate at the deadline).
  result.observe("time_to_target_s", outcome.elapsed_seconds);
  result.observe("cost_usd", outcome.cost_usd);
  if (outcome.completed_steps > 0) {
    result.observe("usd_per_kstep",
                   1000.0 * outcome.cost_usd /
                       static_cast<double>(outcome.completed_steps));
  }
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("outage_revocations",
                 static_cast<double>(outcome.outage_revocations));
  result.observe("outage_denials",
                 static_cast<double>(outcome.outage_denials));
  result.observe("launch_retries",
                 static_cast<double>(outcome.launch_retries));
  result.observe("slots_abandoned",
                 static_cast<double>(outcome.slots_abandoned));
  result.observe("elastic_shrinks",
                 static_cast<double>(outcome.elastic_shrinks));
  result.observe("elastic_grows",
                 static_cast<double>(outcome.elastic_grows));
  result.observe("breaker_opens",
                 static_cast<double>(outcome.breaker_opens));
  result.observe("breaker_transitions",
                 static_cast<double>(outcome.breaker_transitions));
  return result;
}

ScenarioSpec ckpt_scenario() {
  ScenarioSpec spec;
  spec.name = "ckpt_tiers";
  spec.kind = HarnessKind::kRun;
  spec.seed = 1111;
  spec.model = "resnet-15";
  spec.workers = {{3, cloud::GpuType::kK80, cloud::Region::kUsCentral1,
                   true}};
  // Short enough that one replica stays cheap, long enough that several
  // checkpoint generations accumulate and revocations force restores
  // through the verify/fallback path.
  spec.max_steps = 200000;
  spec.checkpoint_interval_steps = 8000;
  spec.horizon_hours = 8.0;
  // Vanilla TF so chief revocations force rollbacks to the newest
  // *restorable* checkpoint — the exact moment the plane's end-to-end
  // verification and generational fallback earn their keep.
  spec.ft_mode = train::FaultToleranceMode::kVanillaTf;

  // Cloud faults drive restores; storage faults decide whether the
  // restored bytes can be trusted. The sweep's ckpt.bit_rot_rate axis
  // overrides the rot pressure per cell.
  spec.faults = faults::FaultPlan::uniform(0.1);
  spec.faults.bit_rot_rate = 0.02;
  spec.faults.torn_write_rate = 0.02;

  // One correlated burst an hour in guarantees chief-killing revocations
  // (and therefore restores) at every replica; the natural K80 hazard
  // alone leaves short runs untouched at many seeds.
  faults::OutageStorm storm;
  storm.region = cloud::Region::kUsCentral1;
  storm.gpu = cloud::GpuType::kK80;
  storm.start_s = 3600.0;
  storm.end_s = 5400.0;
  storm.kill_fraction = 0.7;
  storm.hazard_multiplier = 2.0;
  storm.startup_slowdown = 1.5;
  spec.faults.storms.push_back(storm);

  // A mid-run regional outage: bases live on the regional tier, so
  // restores inside the window must skip (not quarantine) the newest
  // generation and either fall back or retry after the window.
  faults::TierOutageWindow outage;
  outage.tier = cloud::StorageTier::kRegional;
  outage.start_s = 7200.0;
  outage.end_s = 10800.0;
  spec.faults.tier_outages.push_back(outage);

  spec.ckpt.enabled = true;
  spec.ckpt.delta_ratio = 0.12;
  spec.ckpt.max_delta_chain = 4;
  spec.ckpt.max_generations = 3;
  return spec;
}

exp::ReplicaResult ckpt_replica(const ScenarioCell& cell, int /*replica*/,
                                util::Rng& rng,
                                obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("restarts", static_cast<double>(outcome.restarts));
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("ckpt_base_writes",
                 static_cast<double>(outcome.ckpt_base_writes));
  result.observe("ckpt_delta_writes",
                 static_cast<double>(outcome.ckpt_delta_writes));
  result.observe("ckpt_compactions",
                 static_cast<double>(outcome.ckpt_compactions));
  result.observe("ckpt_quarantines",
                 static_cast<double>(outcome.ckpt_quarantines));
  result.observe("ckpt_verified_restores",
                 static_cast<double>(outcome.ckpt_verified_restores));
  result.observe("ckpt_cold_restarts",
                 static_cast<double>(outcome.ckpt_cold_restarts));
  result.observe("ckpt_tier_cost_usd", outcome.ckpt_tier_cost_usd);
  return result;
}

const std::vector<NamedScenarioSweep>& named_sweeps() {
  static const std::vector<NamedScenarioSweep> sweeps = [] {
    std::vector<NamedScenarioSweep> list;

    {
      NamedScenarioSweep s;
      s.name = "lifetime";
      s.description =
          "Fig. 8 / Table V: transient lifetimes and 24 h revocation "
          "fractions over every measured (region, GPU) pair";
      s.sweep.name = s.name;
      s.sweep.base.name = s.name;
      s.sweep.base.kind = HarnessKind::kCloud;
      s.sweep.axes = {{"workers", every_pool()}};
      s.sweep.replicas = 64;
      s.sweep.seed = 8;
      s.replica = lifetime_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "launch";
      s.description =
          "Section V-C ablation grid: P(revoked within an 8 h job) over "
          "(region, GPU, UTC launch hour)";
      s.sweep.name = s.name;
      s.sweep.base.name = s.name;
      s.sweep.base.kind = HarnessKind::kCloud;
      s.sweep.base.horizon_hours = 8.0;
      s.sweep.axes = {{"workers", every_pool()},
                      {"utc_start_hour", {"0", "4", "8", "12", "16", "20"}}};
      s.sweep.replicas = 32;
      s.sweep.seed = 1000;
      s.replica = launch_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "speed";
      s.description =
          "Tables I/III: training speed distributions per (GPU, cluster "
          "size) for ResNet-15/32, one PS";
      s.sweep.name = s.name;
      s.sweep.base = speed_scenario();
      s.sweep.axes = {{"workers",
                       {"1 x K80 @ us-central1", "4 x K80 @ us-central1",
                        "1 x P100 @ us-central1", "4 x P100 @ us-central1",
                        "1 x V100 @ us-central1", "4 x V100 @ us-central1"}},
                      {"model", {"resnet-15", "resnet-32"}}};
      s.sweep.replicas = 16;
      s.sweep.seed = 42;
      s.replica = speed_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "resilience";
      s.description =
          "Degradation curves under injected cloud faults: completion "
          "rate, makespan, cost and retry/fallback counts vs fault rate";
      s.sweep.name = s.name;
      s.sweep.base = resilience_scenario();
      s.sweep.axes = {{"fault_rate", {"0", "0.05", "0.1", "0.2"}}};
      s.sweep.replicas = 8;
      s.sweep.seed = 77;
      s.replica = resilience_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "detection";
      s.description =
          "Supervision study: time-to-recovery and detection latency vs "
          "heartbeat timeout under notice-less revocations";
      s.sweep.name = s.name;
      s.sweep.base = detection_scenario();
      s.sweep.axes = {
          {"supervise.heartbeat_timeout_s", {"60", "300", "900"}},
          {"abrupt_kill_rate", {"0.5", "1"}},
      };
      s.sweep.replicas = 6;
      s.sweep.seed = 505;
      s.replica = detection_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "fleet";
      s.description =
          "Fleet market study: $/step, deadline hit rate and endogenous "
          "eviction mix vs tenant count, demand intensity and scheduler "
          "policy";
      s.sweep.name = s.name;
      s.sweep.base = fleet_scenario();
      s.sweep.axes = {
          {"fleet.tenants", {"128", "256"}},
          {"fleet.demand", {"0.5", "1", "2"}},
          {"fleet.scheduler", {"round-robin", "cost-optimal"}},
      };
      s.sweep.replicas = 3;
      s.sweep.seed = 2020;
      s.replica = fleet_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "storm";
      s.description =
          "Correlated-failure study: $/kstep and time-to-target for "
          "elastic degraded-mode training vs 1-for-1 replacement under "
          "outage storms of rising intensity";
      s.sweep.name = s.name;
      s.sweep.base = storm_scenario();
      s.sweep.axes = {
          {"storms",
           {"us-central1/K80 @ 3600..9000 kill=0.5 hazard=4 slow=2",
            "us-central1/K80 @ 3600..9000 kill=0.9 hazard=4 slow=2"}},
          {"supervise.elastic.enabled", {"false", "true"}},
      };
      s.sweep.replicas = 3;
      s.sweep.seed = 909;
      s.replica = storm_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "ckpt";
      s.description =
          "Checkpoint data-plane study: quarantine / fallback / "
          "cold-restart mix and tier spend for the generational plane vs "
          "flat checkpoints as silent-corruption pressure rises";
      s.sweep.name = s.name;
      s.sweep.base = ckpt_scenario();
      s.sweep.axes = {
          {"ckpt.enabled", {"false", "true"}},
          {"ckpt.bit_rot_rate", {"0", "0.05", "0.2"}},
      };
      s.sweep.replicas = 4;
      s.sweep.seed = 1111;
      s.replica = ckpt_replica;
      list.push_back(std::move(s));
    }

    return list;
  }();
  return sweeps;
}

const NamedScenarioSweep& sweep_by_name(const std::string& name) {
  for (const NamedScenarioSweep& s : named_sweeps()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("sweep_by_name: unknown sweep " + name);
}

}  // namespace cmdare::scenario
