// Engine-level profiler: a SimObserver that attributes simulator work to
// callsite tags.
//
// Attach with sim.set_observer(&profiler) and every fired event is charged
// to its scheduling tag ("worker.compute", "ps.apply", ... — nullptr tags
// pool under "(untagged)"): event counts and host wall-clock time spent in
// the callbacks, plus the peak queue depth the run reached. This answers
// "where does engine time go" (the observability demo and perfbench's
// --trace 1 per-layer numbers, whose trace.overhead_pct prices the
// profiler itself) without any per-module instrumentation, and is the
// simulator-hot-spot view the metrics registry cannot provide (the
// registry counts simulated quantities; this counts host CPU).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "simcore/observer.hpp"

namespace cmdare::obs {

class SimProfiler : public simcore::SimObserver {
 public:
  struct TagStats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    double wall_seconds = 0.0;
  };

  void on_schedule(simcore::SimTime when, const char* tag,
                   std::size_t queue_depth) override;
  void on_fire(simcore::SimTime at, const char* tag, std::size_t queue_depth,
               double wall_seconds) override;

  const std::map<std::string, TagStats>& tags() const { return tags_; }
  std::uint64_t total_scheduled() const { return total_scheduled_; }
  std::uint64_t total_fired() const { return total_fired_; }
  double total_wall_seconds() const { return total_wall_seconds_; }
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// ASCII table of per-tag counts and wall time, sorted by wall time.
  void write_report(std::ostream& out) const;

  void reset();

 private:
  TagStats& stats_for(const char* tag);

  std::map<std::string, TagStats> tags_;
  std::uint64_t total_scheduled_ = 0;
  std::uint64_t total_fired_ = 0;
  double total_wall_seconds_ = 0.0;
  std::size_t max_queue_depth_ = 0;
};

}  // namespace cmdare::obs
