// The experiments `reproduce` runs, and the helpers more than one of
// them uses.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "nn/model_zoo.hpp"
#include "simcore/simulator.hpp"
#include "stats/descriptive.hpp"
#include "train/session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace cmdare::bench {

// One function per experiment, each defined in bench/<name>.cpp. An
// experiment prints its tables to stdout below the banner `reproduce`
// prints for it, and draws every random number from its own seeded
// streams, so it prints the same bytes alone or after the others.
void table1();
void fig2();
void fig3();
void table2();
void table3();
void fig4();
void fig5();
void table4();
void fig6();
void fig7();
void table5();
void fig8();
void fig9();
void fig10();
void fig11();
void fig12();
void usecase_eq4();
void ablation_ftmode();
void ablation_ckpt_interval();
void ablation_launch();
void ablation_sync();
void ablation_straggler();

inline void print_note(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

/// Runs an (x, y, z) cluster and returns mean cluster speed after warmup.
inline double run_cluster_speed(const nn::CnnModel& model, int k80, int p100,
                                int v100, int ps_count, long steps,
                                std::uint64_t seed) {
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = steps;
  config.ps_count = ps_count;
  train::TrainingSession session(sim, model, config, util::Rng(seed));
  for (const auto& w : train::worker_mix(k80, p100, v100)) {
    session.add_worker(w);
  }
  sim.run();
  return session.trace().mean_speed(std::min<long>(200, steps / 4), steps);
}

}  // namespace cmdare::bench
