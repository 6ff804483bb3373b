// Synchronous data-parallel training (ablation baseline).
//
// Section II argues that the *asynchronous* PS architecture (a) tolerates
// revocations and (b) "reduces the impact of hardware differences in
// heterogeneous clusters because slower workers do not impede others".
// SyncTrainingSession is the counterfactual: classic synchronous SGD with
// a barrier per global step —
//
//   every active worker computes gradients on its batch;
//   when ALL have finished, the parameter servers apply the aggregated
//   update once; the next step begins after the update is applied.
//
// Step time = max_i(compute_i) + PS service, so stragglers and slow GPUs
// gate the whole cluster. `reproduce ablation_sync` quantifies the gap
// against TrainingSession on homogeneous and heterogeneous clusters.
//
// Throughput accounting: one synchronous global step consumes one batch
// *per worker*. For apples-to-apples comparison with the asynchronous
// session (whose global step is one worker batch), use
// worker_batches_per_second().
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cloud/calibration.hpp"
#include "nn/model.hpp"
#include "simcore/simulator.hpp"
#include "train/cluster.hpp"
#include "train/ps.hpp"
#include "train/trace.hpp"
#include "util/rng.hpp"

namespace cmdare::train {

class SyncTrainingSession {
 public:
  SyncTrainingSession(simcore::Simulator& sim, nn::CnnModel model,
                      int ps_count, long max_steps, util::Rng rng);

  /// Adds a worker; it participates starting with the next barrier round.
  WorkerId add_worker(const WorkerSpec& spec);
  /// Revokes a worker; the current round completes without it.
  void revoke_worker(WorkerId worker);

  /// Starts the barrier loop (requires >= 1 active worker).
  void start();

  long global_step() const { return global_step_; }
  bool finished() const { return finished_; }
  std::size_t active_worker_count() const;
  const TrainingTrace& trace() const { return trace_; }
  const nn::CnnModel& model() const { return model_; }

  /// Mean global steps/second between two steps (post-warmup window).
  double steps_per_second(long from_step, long to_step) const;
  /// Worker-batch throughput: global steps/s x active workers — the
  /// quantity comparable to the asynchronous session's steps/second.
  double worker_batches_per_second(long from_step, long to_step) const;

  std::function<void()> on_complete;

 private:
  struct Worker {
    WorkerSpec spec;
    bool active = false;
    bool revoked = false;
    long local_step = 0;
    double env_factor = 1.0;
    /// Barrier bookkeeping: the round this worker is computing in, and
    /// whether it has already reached the barrier for that round.
    std::uint64_t participating_round = 0;
    bool done_in_round = false;
  };

  void begin_round();
  void worker_done(WorkerId id, std::uint64_t round);
  void round_barrier_reached();
  void apply_update();

  simcore::Simulator* sim_;
  nn::CnnModel model_;
  long max_steps_;
  util::Rng rng_;
  std::vector<Worker> workers_;
  std::vector<std::unique_ptr<PsShard>> shards_;

  bool started_ = false;
  bool finished_ = false;
  bool round_in_flight_ = false;
  std::uint64_t round_ = 0;
  int pending_workers_ = 0;
  long global_step_ = 0;
  TrainingTrace trace_;
};

}  // namespace cmdare::train
