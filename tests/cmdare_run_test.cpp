#include <gtest/gtest.h>

#include "cmdare/resource_manager.hpp"
#include "nn/model_zoo.hpp"
#include "simcore/simulator.hpp"

namespace cmdare::core {
namespace {

RunConfig small_run(long steps, int workers) {
  RunConfig config;
  config.session.max_steps = steps;
  config.session.checkpoint_interval_steps = 1000;
  config.workers = train::worker_mix(workers, 0, 0);
  return config;
}

TEST(TransientRun, CompletesTraining) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(1));
  TransientTrainingRun run(provider, nn::resnet15(), small_run(2000, 2),
                           util::Rng(2));
  bool completed = false;
  run.on_complete = [&] { completed = true; };
  run.start();
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(run.session().finished());
  EXPECT_GE(run.session().global_step(), 2000);
  EXPECT_GT(run.elapsed_seconds(), 0.0);
}

TEST(TransientRun, WorkersPayStartupAndColdSetupBeforeJoining) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(3));
  TransientTrainingRun run(provider, nn::resnet15(), small_run(500, 1),
                           util::Rng(4));
  run.start();
  // Before ~startup (~86 s) + cold setup (~76 s), no steps can exist.
  sim.run_until(100.0);
  EXPECT_EQ(run.session().global_step(), 0);
  sim.run();
  EXPECT_TRUE(run.session().finished());
}

TEST(TransientRun, ReplacesRevokedWorkers) {
  // Long training with frequently revoked workers: the run should keep
  // requesting replacements and still finish.
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(5));
  RunConfig config = small_run(60000, 3);
  // europe-west1 K80s die young (Table V: 66.67% within 24 h, mostly in
  // the first two hours) — guarantees revocations during a long run.
  for (auto& w : config.workers) w.region = cloud::Region::kEuropeWest1;
  TransientTrainingRun run(provider, nn::resnet15(), config, util::Rng(6));
  run.start();
  sim.run();
  EXPECT_TRUE(run.session().finished());
  EXPECT_GT(run.counters().revocations, 0);
  EXPECT_EQ(run.counters().replacements, run.counters().revocations);
}

TEST(TransientRun, NoReplacementWhenDisabled) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(7));
  RunConfig config = small_run(60000, 2);
  config.auto_replace = false;
  for (auto& w : config.workers) w.region = cloud::Region::kEuropeWest1;
  TransientTrainingRun run(provider, nn::resnet15(), config, util::Rng(8));
  run.start();
  // Run at most 10 simulated days to bound the test if all workers die.
  sim.run_until(10 * 24 * 3600.0);
  EXPECT_EQ(run.counters().replacements, 0);
}

TEST(TransientRun, AccountsCostIncludingParameterServer) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(9));
  TransientTrainingRun run(provider, nn::resnet15(), small_run(2000, 2),
                           util::Rng(10));
  run.start();
  sim.run();
  const double cost = run.cost_so_far();
  EXPECT_GT(cost, 0.0);
  // Two transient K80s + PS for a few minutes: well under a dollar.
  EXPECT_LT(cost, 1.0);
}

TEST(TransientRun, TerminatesInstancesOnCompletion) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(11));
  TransientTrainingRun run(provider, nn::resnet15(), small_run(1000, 2),
                           util::Rng(12));
  run.start();
  sim.run();
  for (const auto& record : provider.records()) {
    EXPECT_FALSE(record.alive());
  }
}

TEST(TransientRun, ValidatesConfig) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(13));
  RunConfig config;  // no workers
  config.session.max_steps = 10;
  EXPECT_THROW(TransientTrainingRun(provider, nn::resnet15(), config,
                                    util::Rng(14)),
               std::invalid_argument);
}

TEST(TransientRun, StartTwiceThrows) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(15));
  TransientTrainingRun run(provider, nn::resnet15(), small_run(100, 1),
                           util::Rng(16));
  run.start();
  EXPECT_THROW(run.start(), std::logic_error);
}

TEST(TransientRun, ElapsedRequiresCompletion) {
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(17));
  TransientTrainingRun run(provider, nn::resnet15(), small_run(100000, 1),
                           util::Rng(18));
  run.start();
  sim.run_until(10.0);
  EXPECT_THROW(run.elapsed_seconds(), std::logic_error);
}

}  // namespace
}  // namespace cmdare::core
