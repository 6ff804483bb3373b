// Section VI-A use case: predicting heterogeneous cluster training speed
// and end-to-end training time with Equations 4 and 5, validated against
// full simulations. The paper reports a 0.8% prediction error for
// ResNet-32 with N_w = 64K and I_c = 4K.
#include "bench_common.hpp"

#include "cloud/revocation.hpp"
#include "cmdare/checkpoint_modeling.hpp"
#include "cmdare/hetero.hpp"
#include "stats/ecdf.hpp"

using namespace cmdare;

void bench::usecase_eq4() {
  // Offline phase: measure and train the per-GPU predictors.
  util::Rng measure_rng(400);
  const auto step_measurements = core::measure_step_times(
      nn::all_models(),
      {cloud::GpuType::kK80, cloud::GpuType::kP100, cloud::GpuType::kV100},
      measure_rng, 900);
  util::Rng train_rng(401);
  const auto speed_predictor =
      core::StepTimePredictor::train(step_measurements, train_rng);
  util::Rng ckpt_rng(402);
  const auto ckpt_measurements =
      core::measure_checkpoint_times(nn::all_models(), ckpt_rng, 5);
  util::Rng ckpt_train_rng(403);
  const auto ckpt_predictor =
      core::CheckpointTimePredictor::train(ckpt_measurements, ckpt_train_rng);

  // 1. Heterogeneous cluster speed: sp = sum_i sp_i.
  std::printf("\nCluster speed: predicted (sum of per-worker) vs simulated\n");
  util::Table table({"cluster (K80,P100,V100)", "model", "predicted",
                     "simulated", "error", "PS-bound?"});
  const struct {
    int k80, p100, v100;
    const char* model;
  } clusters[] = {
      {2, 0, 0, "resnet-32"}, {2, 1, 1, "resnet-32"}, {1, 2, 1, "resnet-15"},
      {4, 0, 0, "shake-shake-small"}, {0, 2, 2, "resnet-32"},
  };
  std::uint64_t seed = 410;
  for (const auto& c : clusters) {
    const nn::CnnModel model = nn::model_by_name(c.model);
    const auto workers = train::worker_mix(c.k80, c.p100, c.v100);
    const double predicted =
        core::predict_cluster_speed(speed_predictor, workers, model.gflops());
    const int n = c.k80 + c.p100 + c.v100;
    const double simulated = bench::run_cluster_speed(
        model, c.k80, c.p100, c.v100, 1, 1500L * n, seed++);
    // The additive composition deliberately ignores the PS; when it
    // exceeds the PS capacity, the shortfall is Section VI-B's bottleneck
    // signal rather than a predictor error.
    const double ps_capacity =
        1.0 / cloud::ps_update_service_seconds(model, 1);
    table.add_row({train::describe_mix(workers), c.model,
                   util::format_double(predicted, 2),
                   util::format_double(simulated, 2),
                   util::format_double(
                       100.0 * std::abs(predicted - simulated) / simulated,
                       1) +
                       "%",
                   predicted > ps_capacity ? "yes (VI-B flag)" : ""});
  }
  table.render(std::cout);
  std::printf(
      "(PS-bound rows: the additive model exceeds the single-PS capacity; "
      "the deficit is the bottleneck-detection signal of Section VI-B)\n");

  // 2. Equation 4 end-to-end: ResNet-32, 2x K80, N_w = 64K, I_c = 4K.
  const nn::CnnModel model = nn::resnet32();
  const auto workers = train::worker_mix(2, 0, 0);
  const double speed =
      core::predict_cluster_speed(speed_predictor, workers, model.gflops());
  core::TrainingTimeParams params;
  params.total_steps = 64000;
  params.checkpoint_interval_steps = 4000;
  params.checkpoint_seconds = ckpt_predictor.predict_seconds(model);
  const auto estimate = core::estimate_training_time(speed, params, {});

  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = 64000;
  config.checkpoint_interval_steps = 4000;
  train::TrainingSession session(sim, model, config, util::Rng(420));
  for (const auto& w : workers) session.add_worker(w);
  sim.run();
  const double actual = session.trace().time_of_step(64000);

  std::printf(
      "\nEq. 4 (no revocations): predicted %s vs simulated %s -> %.2f%% "
      "error (paper: 0.8%%)\n",
      util::format_duration(estimate.total_seconds).c_str(),
      util::format_duration(actual).c_str(),
      100.0 * std::abs(estimate.total_seconds - actual) / actual);

  // 3. Equation 5: expected revocations from empirical lifetime CDFs.
  const cloud::RevocationModel& revocation_model =
      cloud::calibrated_revocation_model();
  util::Rng life_rng(430);
  std::vector<double> lifetimes;
  for (int i = 0; i < 2000; ++i) {
    const auto age = revocation_model.sample_revocation_age_seconds(
        cloud::Region::kUsCentral1, cloud::GpuType::kK80,
        cloud::kReferenceLaunchLocalHour, life_rng);
    lifetimes.push_back(age.value_or(cloud::kMaxTransientLifetimeSeconds));
  }
  const stats::Ecdf lifetime_cdf(lifetimes);
  params.provision_seconds = 86.0;   // mean transient K80 startup
  params.replacement_seconds = cloud::cold_replacement_seconds(model);
  const auto with_revocations = core::estimate_training_time(
      speed, params, {&lifetime_cdf, &lifetime_cdf});
  std::printf(
      "Eq. 5 (us-central1 K80 lifetimes): N_r = %.2f expected revocations, "
      "revocation overhead %s, total %s\n",
      with_revocations.expected_revocations,
      util::format_duration(with_revocations.revocation_seconds).c_str(),
      util::format_duration(with_revocations.total_seconds).c_str());
}
