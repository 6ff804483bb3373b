// Parallel Monte-Carlo campaign engine.
//
// run_grid() runs `replicas` independent replicas for each of `cells`
// grid cells on a ThreadPool and streams the replica observations into
// per-cell aggregates. What a cell means is the caller's business (the
// scenario layer's sweeps map cell c to the c-th expanded spec). The
// design invariants:
//
//   * Determinism for any thread count. Replica (c, r) draws every
//     random number from Rng(seed).fork(c).fork(r) — no shared
//     stream — and aggregation folds replicas *in index order within
//     each cell* (out-of-order completions are buffered until their
//     predecessors arrive), so every aggregate is bit-identical at
//     --jobs 1 and --jobs N. tests/exp_campaign_test.cpp pins this.
//   * Replica isolation. Each replica builds its own simulator and, when
//     telemetry capture is on, gets its own obs::Telemetry installed
//     thread-locally for its duration (see obs/obs.hpp's per-thread
//     contract); bundles merge deterministically after the fold.
//   * Crash isolation. A throwing replica records a failure row (replica
//     index + error text) in its cell and the campaign keeps going; its
//     observations are simply absent from the aggregates.
//
// The progress callback fires under the engine's aggregation mutex after
// every folded replica, so it is serialized — safe to print from or to
// bump counters in a caller-owned structure without extra locking.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "stats/running.hpp"
#include "util/rng.hpp"

namespace cmdare::exp {

/// A replica reports observations as (metric, value) pairs. A metric
/// name may repeat: each occurrence is one observation (e.g. a batch of
/// sampled lifetimes from one replica).
struct ReplicaResult {
  std::vector<std::pair<std::string, double>> observations;

  void observe(std::string metric, double value) {
    observations.emplace_back(std::move(metric), value);
  }
};

struct ReplicaFailure {
  int replica = 0;
  std::string error;
};

/// Streaming per-metric aggregate: Welford moments plus the retained
/// sample for percentile bands and ECDF construction. Values appear in
/// replica order (then observation order within a replica) — the same
/// order for every thread count.
struct MetricAggregate {
  stats::RunningStats running;
  std::vector<double> values;

  double cov() const;
  /// Linear-interpolated percentile of the retained sample, q in [0, 1].
  double quantile(double q) const;
};

struct CellAggregate {
  int replicas_ok = 0;
  int replicas_failed = 0;
  /// Keyed by metric name; std::map so iteration is deterministic.
  std::map<std::string, MetricAggregate> metrics;
  std::vector<ReplicaFailure> failures;
};

struct Progress {
  std::size_t replicas_done = 0;  // ok + failed
  std::size_t replicas_failed = 0;
  std::size_t replicas_total = 0;
  std::size_t cells_done = 0;
  std::size_t cells_total = 0;
};

struct RunOptions {
  /// Worker threads: 1 = serial (inline on the caller), 0 = one per
  /// hardware thread, N = exactly N.
  int jobs = 0;
  /// Give every replica its own obs::Telemetry bundle and merge them all
  /// (tracks prefixed "cell<c>/replica<r>/") into GridResult::telemetry.
  /// Off by default: a large campaign's merged trace is big.
  bool capture_telemetry = false;
  /// Serialized progress callback; fires after every folded replica.
  std::function<void(const Progress&)> on_progress;
  /// Crash-resumable journal (exp/journal.hpp): append every completed
  /// replica's outcome to this file, flushed under the fold lock, so a
  /// killed campaign loses at most one torn trailing line. Empty = off.
  std::string journal_path;
  /// Re-read `journal_path` first and replay the replicas it already
  /// holds instead of re-running them (their replica functions are never
  /// called); only the missing replicas execute. The journal header must
  /// match this run's seed/cells/replicas/telemetry or run_grid throws
  /// std::invalid_argument. With a fresh or absent journal this is a
  /// plain recorded run. The resumed aggregate CSV and merged ledger are
  /// byte-identical to an uninterrupted run at any job count (replayed
  /// registry counters / trace spans are not journaled — see
  /// exp/journal.hpp for the scope contract).
  bool resume = false;
};

/// Replica callback for cell `cell`, replica `replica`: gets the
/// replica's private rng and (when capture is on) its telemetry bundle,
/// already installed thread-locally, so instrumented library code inside
/// the replica lands in it automatically.
using GridReplicaFn = std::function<ReplicaResult(
    std::size_t cell, int replica, util::Rng& rng, obs::Telemetry* telemetry)>;

struct GridResult {
  std::vector<CellAggregate> aggregates;  // one per cell, in cell order
  Progress progress;
  int jobs_used = 1;
  double wall_seconds = 0.0;
  /// Merged per-replica telemetry; null unless capture_telemetry.
  std::unique_ptr<obs::Telemetry> telemetry;
};

/// Runs the grid. Throws std::invalid_argument when `replica` is empty,
/// `cells` is zero, or `replicas` < 1.
GridResult run_grid(std::size_t cells, int replicas, std::uint64_t seed,
                    const GridReplicaFn& replica,
                    const RunOptions& options = {});

}  // namespace cmdare::exp
