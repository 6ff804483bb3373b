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

/// Every checked-in scenarios/*.scn, sorted by stem (generated at
/// configure time; see CMakeLists.txt).
constexpr ScenarioFile kScenarioFiles[] = {
#include "scenario_files.inc"
};

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

std::span<const ScenarioFile> scenario_files() { return kScenarioFiles; }

ScenarioSpec checked_in_scenario(std::string_view stem) {
  for (const ScenarioFile& file : kScenarioFiles) {
    if (file.stem != stem) continue;
    ParseResult parsed = parse(file.text);
    if (!parsed.ok()) {
      const Diagnostic& first = parsed.diagnostics.front();
      throw std::invalid_argument("scenarios/" + std::string(stem) + ".scn:" +
                                  std::to_string(first.line) + ": " +
                                  first.message);
    }
    return std::move(parsed.spec);
  }
  throw std::invalid_argument("checked_in_scenario: no scenarios/" +
                              std::string(stem) + ".scn");
}

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
      s.sweep.base = checked_in_scenario("speed_table1");
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
      s.sweep.base = checked_in_scenario("resilience_campaign");
      s.sweep.axes = {{"fault_rate", {"0", "0.05", "0.1", "0.2"}}};
      s.sweep.replicas = 8;
      s.sweep.seed = 77;
      s.replica = result_replica(
          {{"completed", "finished"}, {"makespan_s", "elapsed", "finished"},
           {"cost_usd"}, {"launch_retries"}, {"fallbacks"},
           {"slots_abandoned"}, {"revocations"}, {"abrupt_kills"},
           {"checkpoints", "checkpoint_blobs"}, {"faults_injected"}});
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "detection";
      s.description =
          "Supervision study: time-to-recovery and detection latency vs "
          "heartbeat timeout under notice-less revocations";
      s.sweep.name = s.name;
      s.sweep.base = checked_in_scenario("detection");
      s.sweep.axes = {
          {"supervise.heartbeat_timeout_s", {"60", "300", "900"}},
          {"abrupt_kill_rate", {"0.5", "1"}},
      };
      s.sweep.replicas = 6;
      s.sweep.seed = 505;
      // Recovery (ttr_s) spans revocation -> replacement running; for
      // abrupt kills it includes the heartbeat detection latency, which
      // the timeout axis trades against false-positive risk.
      s.replica = result_replica(
          {{"finished"}, {"steps", "completed_steps"}, {"revocations"},
           {"abrupt_kills"}, {"detections"}, {"false_detections"},
           {"detection_latency_s", "detection_latency_p99", "detections"},
           {"detection_latency_p50_s", "detection_latency_p50", "detections"},
           {"detection_latency_mean_s", "detection_latency_mean",
            "detections"},
           {"ttr_s", "mean_recovery_seconds", "mean_recovery_seconds"}});
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
      s.sweep.base = checked_in_scenario("fleet");
      s.sweep.axes = {
          {"fleet.tenants", {"128", "256"}},
          {"fleet.demand", {"0.5", "1", "2"}},
          {"fleet.scheduler", {"round-robin", "cost-optimal"}},
      };
      s.sweep.replicas = 3;
      s.sweep.seed = 2020;
      s.replica = result_replica(
          {{"finished"}, {"tenants_finished"}, {"deadline_hit_rate"},
           {"usd_per_kstep"}, {"cost_usd"}, {"steps", "completed_steps"},
           {"placements"}, {"evictions_reclaim"}, {"evictions_priceout"},
           {"evictions_total", "revocations"}, {"migrations"}});
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
      s.sweep.base = checked_in_scenario("storm");
      s.sweep.axes = {
          {"storms",
           {"us-central1/K80 @ 3600..9000 kill=0.5 hazard=4 slow=2",
            "us-central1/K80 @ 3600..9000 kill=0.9 hazard=4 slow=2"}},
          {"supervise.elastic.enabled", {"false", "true"}},
      };
      s.sweep.replicas = 3;
      s.sweep.seed = 909;
      // elapsed is the makespan when finished and the horizon otherwise,
      // so it is directly the time-to-target objective (lower is better;
      // unfinished runs saturate at the deadline).
      s.replica = result_replica(
          {{"finished"}, {"steps", "completed_steps"},
           {"time_to_target_s", "elapsed"}, {"cost_usd"},
           {"usd_per_kstep", "usd_per_kstep", "completed_steps"},
           {"revocations"}, {"outage_revocations"}, {"outage_denials"},
           {"launch_retries"}, {"slots_abandoned"}, {"elastic_shrinks"},
           {"elastic_grows"}, {"breaker_opens"}, {"breaker_transitions"}});
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
      s.sweep.base = checked_in_scenario("ckpt_tiers");
      s.sweep.axes = {
          {"ckpt.enabled", {"false", "true"}},
          {"ckpt.bit_rot_rate", {"0", "0.05", "0.2"}},
      };
      s.sweep.replicas = 4;
      s.sweep.seed = 1111;
      s.replica = result_replica(
          {{"finished"}, {"steps", "completed_steps"}, {"cost_usd"},
           {"restarts"}, {"revocations"}, {"ckpt_base_writes"},
           {"ckpt_delta_writes"}, {"ckpt_compactions"}, {"ckpt_quarantines"},
           {"ckpt_verified_restores"}, {"ckpt_cold_restarts"},
           {"ckpt_tier_cost_usd"}});
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
