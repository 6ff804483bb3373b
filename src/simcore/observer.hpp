// Simulator profiling hook.
//
// An observer registered on a Simulator sees every schedule and fire,
// together with the callsite tag the scheduling code supplied (a static
// string naming the kind of event: "worker.compute", "ps.apply", ...),
// the queue depth at that moment, and the host wall-clock time spent in
// the fired callback. This is how obs::SimProfiler attributes engine time
// to subsystems without the engine knowing anything about them. When no
// observer is registered the engine pays nothing beyond one branch per
// event.
#pragma once

#include <cstddef>

namespace cmdare::simcore {

/// Simulated time in seconds (mirrors simulator.hpp; kept here so the
/// observer interface can be included on its own).
using SimTime = double;

class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// An event was scheduled at absolute time `when`. `tag` is the callsite
  /// tag or nullptr for untagged events; `queue_depth` includes the new
  /// entry. Tags must be string literals (the engine stores the pointer).
  virtual void on_schedule(SimTime when, const char* tag,
                           std::size_t queue_depth) = 0;

  /// An event callback returned. `wall_seconds` is the host CPU wall time
  /// the callback took; `queue_depth` is the depth after popping the event
  /// (callbacks may have pushed more).
  virtual void on_fire(SimTime at, const char* tag, std::size_t queue_depth,
                       double wall_seconds) = 0;
};

}  // namespace cmdare::simcore
