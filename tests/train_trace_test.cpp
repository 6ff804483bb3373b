#include <gtest/gtest.h>

#include "train/cluster.hpp"
#include "train/trace.hpp"

namespace cmdare::train {
namespace {

TEST(Trace, RecordsAndQueriesGlobalSteps) {
  TrainingTrace trace;
  trace.record_global_step(1, 0.5);
  trace.record_global_step(2, 1.0);
  trace.record_global_step(3, 1.5);
  EXPECT_EQ(trace.max_global_step(), 3);
  EXPECT_DOUBLE_EQ(trace.time_of_step(2), 1.0);
  EXPECT_THROW(trace.time_of_step(0), std::out_of_range);
  EXPECT_THROW(trace.time_of_step(4), std::out_of_range);
}

TEST(Trace, TryTimeOfStepReturnsNulloptInsteadOfThrowing) {
  TrainingTrace trace;
  trace.record_global_step(1, 0.5);
  // A recording jump leaves step 2 unreached (sentinel) but step 3 set.
  trace.record_global_step(3, 1.5);
  EXPECT_EQ(trace.try_time_of_step(1), 0.5);
  EXPECT_FALSE(trace.try_time_of_step(0).has_value());
  EXPECT_FALSE(trace.try_time_of_step(2).has_value());  // never reached
  EXPECT_EQ(trace.try_time_of_step(3), 1.5);
  EXPECT_FALSE(trace.try_time_of_step(4).has_value());
  EXPECT_FALSE(trace.try_time_of_step(40000).has_value());
  EXPECT_THROW(trace.time_of_step(2), std::out_of_range);
  // value_or gives callers a clean "finished or bound" expression.
  EXPECT_DOUBLE_EQ(trace.try_time_of_step(40000).value_or(-1.0), -1.0);
}

TEST(Trace, RollbackOverwritesStepTimes) {
  TrainingTrace trace;
  trace.record_global_step(1, 1.0);
  trace.record_global_step(2, 2.0);
  // Rollback: step 2 recomputed later.
  trace.record_global_step(2, 9.0);
  EXPECT_DOUBLE_EQ(trace.time_of_step(2), 9.0);
}

TEST(Trace, SpeedPerWindowUniformSteps) {
  TrainingTrace trace;
  for (long s = 1; s <= 400; ++s) {
    trace.record_global_step(s, 0.1 * static_cast<double>(s));
  }
  const auto speeds = trace.speed_per_window(100);
  ASSERT_EQ(speeds.size(), 4u);
  for (double v : speeds) EXPECT_NEAR(v, 10.0, 1e-9);
}

TEST(Trace, MeanSpeedBetweenSteps) {
  TrainingTrace trace;
  for (long s = 1; s <= 100; ++s) {
    trace.record_global_step(s, 0.5 * static_cast<double>(s));
  }
  EXPECT_NEAR(trace.mean_speed(20, 100), 2.0, 1e-9);
  EXPECT_THROW(trace.mean_speed(50, 50), std::invalid_argument);
}

TEST(Trace, WorkerIntervalsDiscardWarmup) {
  TrainingTrace trace;
  // Worker 0: 5 steps at t = 1..5.
  for (int i = 1; i <= 5; ++i) trace.record_worker_step(0, i);
  const auto all = trace.worker_step_intervals(0, 0);
  EXPECT_EQ(all.size(), 4u);
  const auto discarded = trace.worker_step_intervals(0, 2);
  EXPECT_EQ(discarded.size(), 2u);
  EXPECT_DOUBLE_EQ(discarded[0], 1.0);
  EXPECT_THROW(trace.worker_step_intervals(1, 0), std::out_of_range);
}

TEST(Trace, WorkerStepTimesAccessorValidates) {
  TrainingTrace trace;
  for (int i = 1; i <= 5; ++i) trace.record_worker_step(0, i);
  EXPECT_EQ(trace.worker_step_times(0).size(), trace.worker_step_count(0));
  EXPECT_DOUBLE_EQ(trace.worker_step_times(0).back(), 5.0);
  EXPECT_THROW(trace.worker_step_times(9), std::out_of_range);
}

TEST(Trace, EventsAndCheckpointsAccumulate) {
  TrainingTrace trace;
  trace.record_event(
      SessionEvent{SessionEventType::kWorkerJoined, 1.0, 0, 0, "w0"});
  CheckpointEvent c;
  c.at_step = 100;
  c.started = 5.0;
  c.finished = 8.5;
  trace.record_checkpoint(c);
  EXPECT_EQ(trace.events().size(), 1u);
  ASSERT_EQ(trace.checkpoints().size(), 1u);
  EXPECT_DOUBLE_EQ(trace.checkpoints()[0].duration(), 3.5);
}

TEST(Trace, ValidatesStepNumbers) {
  TrainingTrace trace;
  EXPECT_THROW(trace.record_global_step(0, 1.0), std::invalid_argument);
  EXPECT_THROW(trace.speed_per_window(0), std::invalid_argument);
}

TEST(Cluster, WorkerMixBuildsPaperTuples) {
  const auto workers = worker_mix(2, 1, 1);
  ASSERT_EQ(workers.size(), 4u);
  EXPECT_EQ(workers[0].gpu, cloud::GpuType::kK80);
  EXPECT_EQ(workers[2].gpu, cloud::GpuType::kP100);
  EXPECT_EQ(workers[3].gpu, cloud::GpuType::kV100);
  EXPECT_EQ(describe_mix(workers), "(2, 1, 1)");
}

TEST(Cluster, DescribeEmptyMix) {
  EXPECT_EQ(describe_mix({}), "(0, 0, 0)");
}

TEST(Cluster, WorkerLabelsAreUnique) {
  const auto workers = worker_mix(3, 0, 0);
  EXPECT_NE(workers[0].label, workers[1].label);
  EXPECT_NE(workers[1].label, workers[2].label);
}

}  // namespace
}  // namespace cmdare::train
