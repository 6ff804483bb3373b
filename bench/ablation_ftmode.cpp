// Ablation: CM-DARE fault tolerance vs unmodified TensorFlow.
//
// The paper motivates transient-tensorflow with two mechanisms: chief
// fail-over (a survivor takes over checkpointing) and avoiding the
// IP-reuse rollback. This ablation trains the same job under repeated
// chief revocations in both modes and compares completion time and the
// number of rollbacks.
//
// Each arm is scenarios/ftmode_churn.scn (compiled into the binary) with
// its ft_mode field flipped between cm-dare and vanilla-tf; the
// adversarial churn stays hand-wired.
#include "bench_common.hpp"

#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"

using namespace cmdare;

namespace {

struct Outcome {
  bool finished = false;  // vanilla TF can livelock: every rollback
                          // discards more work than a churn period adds
  double seconds = 0.0;
  int rollbacks = 0;
  std::size_t checkpoints = 0;
};

Outcome run_mode(scenario::ScenarioSpec spec, train::FaultToleranceMode mode,
                 double revoke_every_s, std::uint64_t seed) {
  spec.seed = seed;
  spec.ft_mode = mode;
  scenario::SimHarness harness(spec);
  simcore::Simulator& sim = harness.simulator();
  train::TrainingSession& session = *harness.session();

  // Periodically revoke the current checkpoint owner (the worst case for
  // vanilla TF) and add a replacement 75 s later that reuses the old IP.
  std::function<void()> churn = [&] {
    if (session.finished()) return;
    const auto owner = session.checkpoint_owner();
    if (owner && session.worker_active(*owner)) {
      session.revoke_worker(*owner);
      sim.schedule_after(75.6, [&] {
        if (!session.finished()) {
          session.add_worker(train::worker_mix(1, 0, 0)[0], 0.0,
                             /*reuse_chief_ip=*/true);
        }
      });
    } else if (session.active_worker_count() < 2 && !session.finished()) {
      session.add_worker(train::worker_mix(1, 0, 0)[0]);
    }
    sim.schedule_after(revoke_every_s, churn);
  };
  sim.schedule_after(revoke_every_s, churn);
  harness.run();

  Outcome outcome;
  outcome.finished = session.finished();
  outcome.seconds =
      session.trace().try_time_of_step(spec.max_steps).value_or(sim.now());
  for (const auto& e : session.trace().events()) {
    if (e.type == train::SessionEventType::kRollback) ++outcome.rollbacks;
  }
  outcome.checkpoints = session.trace().checkpoints().size();
  return outcome;
}

}  // namespace

void bench::ablation_ftmode() {
  const scenario::ScenarioSpec base =
      scenario::checked_in_scenario("ftmode_churn");
  // The spec's horizon bounds each run; a livelocked arm stops there.
  const double bound_s = base.horizon_hours * 3600.0;
  util::Table table({"chief revoked every", "mode", "time to 40K steps",
                     "rollbacks", "checkpoints", "overhead vs CM-DARE"});
  std::uint64_t seed = 800;
  for (double period : {1200.0, 600.0, 300.0}) {
    const Outcome cmdare_run =
        run_mode(base, train::FaultToleranceMode::kCmDare, period, seed);
    const Outcome vanilla =
        run_mode(base, train::FaultToleranceMode::kVanillaTf, period, seed);
    seed += 2;
    const auto label = util::format_duration(period);
    table.add_row({label, "CM-DARE",
                   util::format_duration(cmdare_run.seconds),
                   std::to_string(cmdare_run.rollbacks),
                   std::to_string(cmdare_run.checkpoints), "—"});
    table.add_row(
        {"", "vanilla TF",
         vanilla.finished
             ? util::format_duration(vanilla.seconds)
             : "DNF (> " + util::format_duration(bound_s) + ")",
         std::to_string(vanilla.rollbacks),
         std::to_string(vanilla.checkpoints),
         vanilla.finished
             ? "+" + util::format_double(
                         100.0 * (vanilla.seconds / cmdare_run.seconds - 1.0),
                         1) +
                   "%"
             : "livelock"});
  }
  table.render(std::cout);

  bench::print_note(
      "every vanilla-TF chief revocation discards up to a checkpoint "
      "interval of progress (Fig. 11); CM-DARE reassigns checkpoint duty "
      "and loses only the revoked worker's in-flight step. Under heavy "
      "churn, vanilla TF livelocks: each rollback discards more work than "
      "a churn period produces, so the job never crosses the next "
      "checkpoint — exactly the failure mode transient-tensorflow exists "
      "to prevent.");
}
