#include <gtest/gtest.h>

#include "cmdare/controller.hpp"
#include "cmdare/measurement.hpp"
#include "nn/model_zoo.hpp"

namespace cmdare::core {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(500);
    const auto measurements = measure_step_times(
        nn::all_models(),
        {cloud::GpuType::kK80, cloud::GpuType::kP100, cloud::GpuType::kV100},
        rng, 500);
    util::Rng train_rng(501);
    predictor_ = new StepTimePredictor(
        StepTimePredictor::train(measurements, train_rng));
  }
  static void TearDownTestSuite() {
    delete predictor_;
    predictor_ = nullptr;
  }
  static StepTimePredictor* predictor_;
};

StepTimePredictor* ControllerTest::predictor_ = nullptr;

RunConfig p100_cluster(int workers, long steps) {
  RunConfig config;
  config.session.max_steps = steps;
  config.workers = train::worker_mix(0, workers, 0);
  return config;
}

TEST_F(ControllerTest, MitigatesSaturatedCluster) {
  // 8x P100 on ResNet-32 with one PS is deeply PS-bound; the controller
  // must notice and restart with more parameter servers.
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(1));
  TransientTrainingRun run(provider, nn::resnet32(), p100_cluster(8, 60000),
                           util::Rng(2));
  Controller controller(run, *predictor_);
  run.start();
  controller.start();
  sim.run();

  EXPECT_TRUE(run.finished());
  EXPECT_GE(controller.mitigations(), 1);
  EXPECT_GT(run.current_ps_count(), 1);
  EXPECT_EQ(run.counters().restarts, controller.mitigations());
  EXPECT_GE(run.completed_steps(), 60000);
}

TEST_F(ControllerTest, MitigationImprovesThroughput) {
  const auto run_once = [&](bool with_controller) {
    simcore::Simulator sim;
    cloud::CloudProvider provider(sim, util::Rng(3));
    TransientTrainingRun run(provider, nn::resnet32(),
                             p100_cluster(8, 60000), util::Rng(4));
    Controller controller(run, *predictor_);
    run.start();
    if (with_controller) controller.start();
    sim.run();
    return run.elapsed_seconds();
  };
  const double without = run_once(false);
  const double with = run_once(true);
  EXPECT_LT(with, 0.75 * without);
}

TEST_F(ControllerTest, LeavesHealthyClusterAlone) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(5));
  RunConfig config;
  config.session.max_steps = 20000;
  config.workers = train::worker_mix(2, 0, 0);  // far below PS capacity
  TransientTrainingRun run(provider, nn::resnet32(), config, util::Rng(6));
  Controller controller(run, *predictor_);
  run.start();
  controller.start();
  sim.run();
  EXPECT_EQ(controller.mitigations(), 0);
  EXPECT_EQ(run.current_ps_count(), 1);
  EXPECT_GT(controller.checks_performed(), 0u);
}

TEST_F(ControllerTest, RespectsMaxParameterServers) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(7));
  TransientTrainingRun run(provider, nn::resnet32(), p100_cluster(8, 80000),
                           util::Rng(8));
  ControllerConfig config;
  config.max_parameter_servers = 2;
  Controller controller(run, *predictor_, config);
  run.start();
  controller.start();
  sim.run();
  EXPECT_LE(run.current_ps_count(), 2);
}

TEST_F(ControllerTest, RunPreservesProgressAcrossRestart) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(9));
  TransientTrainingRun run(provider, nn::resnet32(), p100_cluster(4, 30000),
                           util::Rng(10));
  run.start();
  // Manual restart mid-run.
  bool restarted = false;
  sim.schedule_at(600.0, [&] {
    const long before = run.completed_steps();
    run.restart_with_ps_count(2);
    restarted = true;
    EXPECT_EQ(run.completed_steps(), before);  // offset carried over
    EXPECT_EQ(run.current_ps_count(), 2);
  });
  sim.run();
  EXPECT_TRUE(restarted);
  EXPECT_TRUE(run.finished());
  EXPECT_GE(run.completed_steps(), 30000);
}

TEST_F(ControllerTest, RestartAfterFinishIsNoOp) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(11));
  TransientTrainingRun run(provider, nn::resnet32(), p100_cluster(1, 500),
                           util::Rng(12));
  run.start();
  sim.run();
  EXPECT_TRUE(run.finished());
  run.restart_with_ps_count(3);
  EXPECT_EQ(run.counters().restarts, 0);
  EXPECT_EQ(run.current_ps_count(), 1);
}

TEST_F(ControllerTest, ValidatesConfig) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(13));
  TransientTrainingRun run(provider, nn::resnet32(), p100_cluster(2, 100),
                           util::Rng(14));
  ControllerConfig bad;
  bad.check_period_seconds = 0.0;
  EXPECT_THROW(Controller(run, *predictor_, bad), std::invalid_argument);
  bad = ControllerConfig();
  bad.max_parameter_servers = 0;
  EXPECT_THROW(Controller(run, *predictor_, bad), std::invalid_argument);
  EXPECT_THROW(run.restart_with_ps_count(0), std::invalid_argument);

  Controller controller(run, *predictor_);
  run.start();
  controller.start();
  EXPECT_THROW(controller.start(), std::logic_error);
}

}  // namespace
}  // namespace cmdare::core
