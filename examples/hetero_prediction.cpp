// Heterogeneous cluster planning (Section VI-A): given a training job,
// predict speed and end-to-end time — including expected revocations from
// empirical lifetime CDFs (Equations 4 and 5) — for several candidate
// cluster shapes, then verify one prediction against a full simulation.
#include <cstdio>
#include <iostream>

#include <cmath>

#include "cloud/revocation.hpp"
#include "cmdare/checkpoint_modeling.hpp"
#include "cmdare/hetero.hpp"
#include "nn/model_zoo.hpp"
#include "simcore/simulator.hpp"
#include "stats/ecdf.hpp"
#include "train/session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace cmdare;

int main() {
  const nn::CnnModel model = nn::resnet32();
  constexpr double kSteps = 64000;
  constexpr long kCkptInterval = 4000;

  // Offline modeling phase (the paper's "historical measurement data").
  util::Rng rng(51);
  const auto step_measurements = core::measure_step_times(
      nn::all_models(),
      {cloud::GpuType::kK80, cloud::GpuType::kP100, cloud::GpuType::kV100},
      rng, 800);
  util::Rng train_rng(52);
  const auto speed_model =
      core::StepTimePredictor::train(step_measurements, train_rng);
  util::Rng ckpt_rng(53);
  const auto ckpt_model = core::CheckpointTimePredictor::train(
      core::measure_checkpoint_times(nn::all_models(), ckpt_rng, 5),
      ckpt_rng);

  // Empirical lifetime CDF per GPU type in us-central1 (Figure 8 data).
  const cloud::RevocationModel& revocations =
      cloud::calibrated_revocation_model();
  util::Rng life_rng(54);
  const auto lifetime_cdf = [&](cloud::GpuType gpu) {
    std::vector<double> lifetimes;
    for (int i = 0; i < 2000; ++i) {
      const auto age = revocations.sample_revocation_age_seconds(
          cloud::Region::kUsCentral1, gpu, cloud::kReferenceLaunchLocalHour,
          life_rng);
      lifetimes.push_back(age.value_or(cloud::kMaxTransientLifetimeSeconds));
    }
    return stats::Ecdf(lifetimes);
  };
  const stats::Ecdf k80_cdf = lifetime_cdf(cloud::GpuType::kK80);
  const stats::Ecdf p100_cdf = lifetime_cdf(cloud::GpuType::kP100);
  const stats::Ecdf v100_cdf = lifetime_cdf(cloud::GpuType::kV100);

  util::Table table({"cluster (K80,P100,V100)", "speed (steps/s)",
                     "compute", "ckpt", "E[revocations]", "revoke ovh",
                     "total time"});
  const int shapes[][3] = {{2, 0, 0}, {4, 0, 0}, {0, 2, 0},
                           {2, 1, 1}, {0, 0, 2}, {1, 1, 0}};
  for (const auto& s : shapes) {
    const auto workers = train::worker_mix(s[0], s[1], s[2]);
    const double speed =
        core::predict_cluster_speed(speed_model, workers, model.gflops());

    core::TrainingTimeParams params;
    params.total_steps = kSteps;
    params.checkpoint_interval_steps = kCkptInterval;
    params.checkpoint_seconds = ckpt_model.predict_seconds(model);
    params.provision_seconds = 90.0;
    params.replacement_seconds = cloud::cold_replacement_seconds(model);

    std::vector<const stats::Ecdf*> cdfs;
    for (int i = 0; i < s[0]; ++i) cdfs.push_back(&k80_cdf);
    for (int i = 0; i < s[1]; ++i) cdfs.push_back(&p100_cdf);
    for (int i = 0; i < s[2]; ++i) cdfs.push_back(&v100_cdf);

    const auto est = core::estimate_training_time(speed, params, cdfs);
    table.add_row({train::describe_mix(workers),
                   util::format_double(speed, 2),
                   util::format_duration(est.compute_seconds),
                   util::format_duration(est.checkpoint_seconds),
                   util::format_double(est.expected_revocations, 2),
                   util::format_duration(est.revocation_seconds),
                   util::format_duration(est.total_seconds)});
  }
  table.set_title("ResNet-32, N_w = 64K steps, I_c = 4K (us-central1):");
  table.render(std::cout);

  // Validate the (2,1,1) speed prediction against a simulation.
  const auto workers = train::worker_mix(2, 1, 1);
  const double predicted =
      core::predict_cluster_speed(speed_model, workers, model.gflops());
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = 8000;
  train::TrainingSession session(sim, model, config, util::Rng(55));
  for (const auto& w : workers) session.add_worker(w);
  sim.run();
  const double simulated = session.trace().mean_speed(200, 8000);
  std::printf(
      "\nvalidation — (2,1,1) predicted %.2f vs simulated %.2f steps/s "
      "(%.1f%% error)\n",
      predicted, simulated,
      100.0 * std::abs(predicted - simulated) / simulated);
  return 0;
}
