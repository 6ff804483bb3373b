// reproduce: regenerates the paper's evaluation (Tables I-V, Figures
// 2-12 and the Section VI-A use case) plus five ablations, printing each
// measured result beside the paper's. EXPERIMENTS.md compares the two.
//
//   reproduce           # every experiment, in EXPERIMENTS.md order
//   reproduce table5    # one experiment, by id
//
// Each experiment is a function in bench/<id>.cpp. The table below is
// explicit, not filled by static self-registration, because the order in
// which translation units register is not fixed and the run order must
// be. An experiment that throws ends the run with exit status 1.
#include <cstdio>
#include <exception>
#include <string>

#include "bench_common.hpp"
#include "util/args.hpp"

namespace {

using namespace cmdare;

struct Experiment {
  const char* id;
  const char* heading;
  const char* title;
  void (*run)();
};

constexpr Experiment kExperiments[] = {
    {"table1", "Table I", "training speed (steps/s), 1 GPU worker + 1 PS",
     bench::table1},
    {"fig2", "Figure 2", "training speed per 100-step window, K80 worker",
     bench::fig2},
    {"fig3", "Figure 3",
     "step time vs normalized computation / model complexity", bench::fig3},
    {"table2", "Table II", "step-time prediction model comparison",
     bench::table2},
    {"table3", "Table III", "per-worker step time (ms), ResNet-32, 1 PS",
     bench::table3},
    {"fig4", "Figure 4", "cluster speed (steps/s) vs #P100 workers, 1 PS",
     bench::fig4},
    {"fig5", "Figure 5", "checkpoint duration vs checkpoint size",
     bench::fig5},
    {"table4", "Table IV", "checkpoint-time prediction models",
     bench::table4},
    {"fig6", "Figure 6", "startup-time breakdown by GPU / region / tenancy",
     bench::fig6},
    {"fig7", "Figure 7",
     "startup time after a revocation: immediate vs delayed", bench::fig7},
    {"table5", "Table V", "transient revocations by region and GPU, 12 days",
     bench::table5},
    {"fig8", "Figure 8", "transient lifetime CDFs by region and GPU type",
     bench::fig8},
    {"fig9", "Figure 9", "revocations by local hour of day, per GPU type",
     bench::fig9},
    {"fig10", "Figure 10", "worker replacement overhead: cold vs warm start",
     bench::fig10},
    {"fig11", "Figure 11",
     "recomputation overhead of reusing the revoked chief's IP address",
     bench::fig11},
    {"fig12", "Figure 12",
     "PS bottleneck: 1 vs 2 parameter servers (P100 workers)", bench::fig12},
    {"usecase_eq4", "Use case (Sec. VI-A)",
     "heterogeneous training speed + Eq. 4/5 time", bench::usecase_eq4},
    {"ablation_ftmode", "Ablation: fault-tolerance mode",
     "CM-DARE chief fail-over vs vanilla TensorFlow IP-reuse rollback",
     bench::ablation_ftmode},
    {"ablation_ckpt_interval", "Ablation: checkpoint interval",
     "analytic plan vs simulation (vanilla TF, churny chief)",
     bench::ablation_ckpt_interval},
    {"ablation_launch", "Ablation: launch planning",
     "picking region + local hour to dodge revocations",
     bench::ablation_launch},
    {"ablation_sync", "Ablation: async vs sync",
     "worker-batch throughput, 1 PS, ResNet-32", bench::ablation_sync},
    {"ablation_straggler", "Ablation: straggler detection",
     "peer-based slow-worker detection accuracy", bench::ablation_straggler},
};

void run(const Experiment& experiment) {
  std::printf(
      "\n============================================================\n");
  std::printf("%s — %s\n", experiment.heading, experiment.title);
  std::printf(
      "============================================================\n");
  experiment.run();
}

}  // namespace

int main(int argc, char** argv) {
  std::string ids;
  for (const Experiment& experiment : kExperiments) {
    ids += std::string(" ") + experiment.id;
  }

  std::string id;
  util::ArgParser args("reproduce",
                       "Regenerate the paper's tables and figures.\n"
                       "experiments:" + ids);
  args.add_positional("id", "run only this experiment (default: all)", &id,
                      /*required=*/false);
  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                 args.help_text().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::fputs(args.help_text().c_str(), stdout);
    return 0;
  }

  const Experiment* only = nullptr;
  for (const Experiment& experiment : kExperiments) {
    if (id == experiment.id) only = &experiment;
  }
  if (!id.empty() && only == nullptr) {
    std::fprintf(stderr, "error: unknown experiment \"%s\"; valid ids:%s\n",
                 id.c_str(), ids.c_str());
    return 1;
  }

  for (const Experiment& experiment : kExperiments) {
    if (only != nullptr && only != &experiment) continue;
    try {
      run(experiment);
    } catch (const std::exception& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "error: %s: %s\n", experiment.id, e.what());
      return 1;
    }
  }
  return 0;
}
