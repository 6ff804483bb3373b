// Ablation: checkpoint-interval planning.
//
// Section IV shows checkpoint cost is ~linear in checkpoint count;
// Section V-E shows the rollback work loss is bounded by the interval.
// The planner balances the two. This experiment sweeps the interval, prints
// the analytic expected-time curve, and validates the planner's choice
// against full vanilla-TF simulations with periodic chief revocations.
#include "bench_common.hpp"

#include <cmath>

#include "cmdare/planner.hpp"

using namespace cmdare;

namespace {

// Simulated total time for one interval under periodic chief revocations
// (vanilla TF, old-IP replacements after the cold-start overhead).
double simulate_interval(long interval, double revoke_every_s,
                         std::uint64_t seed) {
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = 40000;
  config.checkpoint_interval_steps = interval;
  config.mode = train::FaultToleranceMode::kVanillaTf;
  train::TrainingSession session(sim, nn::resnet15(), config,
                                 util::Rng(seed));
  session.add_worker(train::worker_mix(2, 0, 0)[0]);
  session.add_worker(train::worker_mix(2, 0, 0)[1]);

  std::function<void()> churn = [&] {
    if (session.finished()) return;
    const auto owner = session.checkpoint_owner();
    if (owner && session.worker_active(*owner)) {
      session.revoke_worker(*owner);
      sim.schedule_after(75.6, [&] {
        if (!session.finished()) {
          session.add_worker(train::worker_mix(1, 0, 0)[0], 0.0, true);
        }
      });
    }
    sim.schedule_after(revoke_every_s, churn);
  };
  sim.schedule_after(revoke_every_s, churn);
  // Long intervals can livelock under churn (see ablation_ftmode.cpp);
  // bound the simulation and report the bound.
  sim.run_until(6.0 * 3600.0);
  return session.trace().try_time_of_step(40000).value_or(
      -1.0);  // -1: did not finish
}

}  // namespace

void bench::ablation_ckpt_interval() {
  // ResNet-15 on 2x K80: sp ~ 18.9 steps/s, T_c ~ 3.7 s; chief revoked
  // every ~8 minutes.
  core::CheckpointPlanParams params;
  params.total_steps = 40000;
  params.cluster_speed = 2 * 9.46;
  params.checkpoint_seconds = 3.7;
  params.chief_revocations_per_hour = 3600.0 / 480.0;
  params.provision_seconds = 0.0;  // warm pool; replacement only
  params.replacement_seconds = 75.6;

  const core::CheckpointPlan plan = core::plan_checkpoint_interval(params);
  std::printf("planner: optimal interval = %ld steps, expected %s\n\n",
              plan.interval_steps,
              util::format_duration(plan.expected_seconds).c_str());

  util::Table table({"interval (steps)", "analytic expected",
                     "simulated (mean of 3)", "ckpt overhead",
                     "rollback exposure"});
  std::uint64_t seed = 900;
  for (long interval : {500L, 1000L, 2000L, 4000L, 8000L, 16000L, 40000L}) {
    const double analytic =
        core::expected_time_with_interval(interval, params);
    double simulated = 0.0;
    bool finished = true;
    for (int r = 0; r < 3; ++r) {
      const double t = simulate_interval(interval, 480.0, seed++);
      if (t < 0.0) finished = false;
      simulated += t;
    }
    simulated /= 3.0;
    const double ckpt_overhead =
        std::ceil(params.total_steps / static_cast<double>(interval)) *
        params.checkpoint_seconds;
    const double exposure =
        (static_cast<double>(interval) / 2.0) / params.cluster_speed;
    table.add_row({std::to_string(interval),
                   util::format_duration(analytic),
                   finished ? util::format_duration(simulated)
                            : "DNF (livelock)",
                   util::format_duration(ckpt_overhead),
                   util::format_duration(exposure)});
  }
  table.render(std::cout);

  bench::print_note(
      "short intervals pay checkpoint overhead, long intervals pay "
      "rollback recomputation; the planner's minimum sits where the two "
      "balance (Young-Daly-style trade-off on the paper's cost model).");
}
