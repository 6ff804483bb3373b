// End-to-end integration: the full CM-DARE pipeline — measure, model,
// predict, train with revocations — wired together the way the paper's
// Section VI use cases describe.
#include <gtest/gtest.h>

#include "cmdare/checkpoint_modeling.hpp"
#include "cmdare/hetero.hpp"
#include "cmdare/resource_manager.hpp"
#include "cmdare/speed_modeling.hpp"
#include "nn/model_zoo.hpp"
#include "simcore/simulator.hpp"
#include "stats/ecdf.hpp"

namespace cmdare::core {
namespace {

TEST(Integration, Equation4PredictsSimulatedTrainingTime) {
  // Paper Section VI-A: 0.8% prediction error for ResNet-32 with
  // N_w = 64K and I_c = 4K (stable cluster, no revocations).
  const nn::CnnModel model = nn::resnet32();

  // 1. Offline measurement + modeling on the full zoo.
  util::Rng measure_rng(1);
  const auto step_measurements = measure_step_times(
      nn::all_models(), {cloud::GpuType::kK80}, measure_rng, 600);
  util::Rng train_rng(2);
  const StepTimePredictor speed_predictor =
      StepTimePredictor::train(step_measurements, train_rng);
  util::Rng ckpt_rng(3);
  const auto ckpt_measurements =
      measure_checkpoint_times(nn::all_models(), ckpt_rng, 5);
  util::Rng ckpt_train_rng(4);
  const CheckpointTimePredictor ckpt_predictor =
      CheckpointTimePredictor::train(ckpt_measurements, ckpt_train_rng);

  // 2. Predict: 2x K80, N_w = 64K steps, I_c = 4K.
  const auto workers = train::worker_mix(2, 0, 0);
  const double speed =
      predict_cluster_speed(speed_predictor, workers, model.gflops());
  TrainingTimeParams params;
  params.total_steps = 64000;
  params.checkpoint_interval_steps = 4000;
  params.checkpoint_seconds = ckpt_predictor.predict_seconds(model);
  const TrainingTimeEstimate estimate =
      estimate_training_time(speed, params, {});

  // 3. Simulate the actual training.
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = 64000;
  config.checkpoint_interval_steps = 4000;
  train::TrainingSession session(sim, model, config, util::Rng(5));
  for (const auto& w : workers) session.add_worker(w);
  sim.run();
  const double actual = session.trace().time_of_step(64000);

  // Paper reports 0.8%; warmup and queueing noise land us within a few
  // percent.
  EXPECT_NEAR(estimate.total_seconds, actual, actual * 0.05);
}

TEST(Integration, LifetimeCdfsFeedEquation5) {
  // Build empirical lifetime CDFs from the revocation model (the Fig. 8
  // data), then use them for an Eq. 5 estimate.
  const cloud::RevocationModel revocation_model;
  util::Rng rng(6);
  std::vector<double> lifetimes;
  for (int i = 0; i < 500; ++i) {
    const auto age = revocation_model.sample_revocation_age_seconds(
        cloud::Region::kUsCentral1, cloud::GpuType::kK80, 9.0, rng);
    lifetimes.push_back(age.value_or(cloud::kMaxTransientLifetimeSeconds));
  }
  const stats::Ecdf cdf(lifetimes);

  TrainingTimeParams params;
  params.total_steps = 64000;
  params.checkpoint_interval_steps = 4000;
  params.checkpoint_seconds = 3.84;
  params.provision_seconds = 90.0;
  params.replacement_seconds = 75.6;
  const double speed = 2 * 4.56;  // two K80 workers on ResNet-32
  const TrainingTimeEstimate est =
      estimate_training_time(speed, params, {&cdf, &cdf});
  // 64000 / 9.12 ~ 7018 s ~ 1.95 h of training: some revocation mass.
  EXPECT_GT(est.expected_revocations, 0.0);
  EXPECT_LT(est.expected_revocations, 2.0);
  EXPECT_GT(est.total_seconds, est.compute_seconds);
}

TEST(Integration, RevokedRunStillReachesTargetAndCostsMore) {
  // Same training twice: stable region vs churny region. The churny run
  // must see revocations and take longer, but still complete.
  const auto run_in_region = [&](cloud::Region region, std::uint64_t seed,
                                 int* revocations) {
    simcore::Simulator sim;
    cloud::CloudProvider provider(sim, util::Rng(seed));
    RunConfig config;
    config.session.max_steps = 120000;
    config.session.checkpoint_interval_steps = 4000;
    config.workers = train::worker_mix(2, 0, 0, region);
    TransientTrainingRun run(provider, nn::resnet15(), config,
                             util::Rng(seed + 1));
    run.start();
    sim.run();
    EXPECT_TRUE(run.session().finished());
    *revocations = run.counters().revocations;
    return run.elapsed_seconds();
  };

  int stable_revocations = 0, churny_revocations = 0;
  const double stable =
      run_in_region(cloud::Region::kUsWest1, 10, &stable_revocations);
  const double churny =
      run_in_region(cloud::Region::kEuropeWest1, 20, &churny_revocations);
  EXPECT_GT(churny_revocations, stable_revocations);
  EXPECT_GT(churny, stable * 0.95);  // usually strictly longer
}

TEST(Integration, CheckpointingBoundsVanillaTfWorkLoss) {
  // Figure 11's setup as an integration property: with vanilla TF and an
  // old-IP replacement, the time to the next checkpoint grows with the
  // replacement delay.
  const auto time_to_step_4000 = [&](double replacement_delay) {
    simcore::Simulator sim;
    train::SessionConfig config;
    config.checkpoint_interval_steps = 4000;
    config.max_steps = 4000;
    config.mode = train::FaultToleranceMode::kVanillaTf;
    train::TrainingSession session(sim, nn::resnet15(), config,
                                   util::Rng(30));
    const auto chief = session.add_worker(train::worker_mix(2, 0, 0)[0]);
    session.add_worker(train::worker_mix(2, 0, 0)[1]);

    // Revoke the chief at 1000 global steps.
    session.on_step = [&](long step, simcore::SimTime) {
      if (step == 1000 && session.worker_active(chief)) {
        session.revoke_worker(chief);
        sim.schedule_after(replacement_delay, [&session] {
          session.add_worker(train::worker_mix(1, 0, 0)[0], 0.0,
                             /*reuse_chief_ip=*/true);
        });
      }
    };
    sim.run();
    EXPECT_TRUE(session.finished());
    return sim.now();
  };

  const double quick = time_to_step_4000(20.0);
  const double slow = time_to_step_4000(200.0);
  EXPECT_GT(slow, quick + 150.0);
}

}  // namespace
}  // namespace cmdare::core
