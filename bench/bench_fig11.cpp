// Figure 11: TensorFlow-specific recomputation overhead. Training
// ResNet-15 on two K80 workers with a 4K-step checkpoint interval, the
// chief is revoked 1K steps after the last checkpoint. A replacement
// that reuses the chief's old IP address forces unmodified TensorFlow to
// recompute from the last checkpoint; a replacement with a new IP does
// not. The overhead is the difference in time-to-next-checkpoint, as a
// function of the replacement timing.
//
// The session is scenarios/fig11_rollback.scn (compiled into the
// binary) at each row's seed; only the mid-training chief revocation is
// wired by hand via on_step.
#include "bench_common.hpp"

#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"

using namespace cmdare;

namespace {

// Time from the revocation until global step 4000 (the next designated
// checkpoint) is reached.
double time_to_next_checkpoint(double replacement_delay, bool reuse_ip,
                               std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::checked_in_scenario("fig11_rollback");
  spec.seed = seed;

  scenario::SimHarness harness(spec);
  simcore::Simulator& sim = harness.simulator();
  train::TrainingSession& session = *harness.session();

  double revoked_at = -1.0;
  session.on_step = [&](long step, simcore::SimTime at) {
    if (step == 1000 && revoked_at < 0.0) {
      revoked_at = at;
      // Vanilla TF binds checkpoint duty to the chief — the first worker.
      const auto chief = session.checkpoint_owner();
      if (chief) session.revoke_worker(*chief);
      sim.schedule_after(replacement_delay, [&session, reuse_ip] {
        session.add_worker(train::worker_mix(1, 0, 0)[0], 0.0, reuse_ip);
      });
    }
  };
  harness.run();
  return sim.now() - revoked_at;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 11",
      "recomputation overhead of reusing the revoked chief's IP address");

  util::Table table({"replacement timing (s)", "old IP: to next ckpt (s)",
                     "new IP: to next ckpt (s)",
                     "recomputation overhead (s)"});
  std::uint64_t seed = 110;
  for (double timing : {0.0, 30.0, 60.0, 90.0, 120.0, 180.0, 240.0}) {
    const double with_reuse = time_to_next_checkpoint(timing, true, seed);
    const double without = time_to_next_checkpoint(timing, false, seed);
    table.add_row({util::format_double(timing, 0),
                   util::format_double(with_reuse, 1),
                   util::format_double(without, 1),
                   util::format_double(with_reuse - without, 1)});
    ++seed;
  }
  table.render(std::cout);

  bench::print_note(
      "the overhead grows with the replacement timing (more surviving-"
      "worker progress is discarded) and is bounded by the checkpoint "
      "interval — up to ~224 s at a 4K-step interval in the paper. "
      "CM-DARE avoids it entirely by reassigning checkpoint duty instead "
      "of binding it to the chief's IP.");
  return 0;
}
