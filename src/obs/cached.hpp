// Epoch-validated caches for hot-path instrumentation.
//
// Registry and Tracer lookups are find-or-create by name: cheap, but not
// free — per-event instrumentation (a training step, a PS update apply)
// used to pay a key composition plus a map/track search on every probe,
// which dominated the telemetry-enabled overhead (bench_snapshot's
// obs_overhead_pct). These helpers resolve the series/track once per
// installed telemetry bundle and then serve a raw pointer (or track id)
// until the thread's bundle changes.
//
// Validity is keyed on obs::epoch(), which install() bumps, rather than
// on the Telemetry address: bundles are usually stack-allocated, so a new
// bundle can land at a just-destroyed bundle's address and pointer
// identity would validate a dangling reference. An epoch mismatch forces
// a re-resolve against whatever bundle (or none) is now installed.
//
// Thread contract: a cached handle follows the *calling* thread's bundle
// (epoch and active pointer are thread-local). Like the underlying
// Registry/Tracer, a handle must not be shared across threads — each
// replica thread owns its instrumented objects and their caches.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace cmdare::obs {

namespace detail {

/// Common epoch bookkeeping for the typed caches below.
template <typename Handle, typename Derived>
class CachedBase {
 public:
  /// The handle resolved against the currently installed bundle, or
  /// nullptr when telemetry is disabled on this thread.
  Handle* get() {
    if (epoch_ != obs::epoch()) {
      Telemetry* t = obs::telemetry();
      handle_ = t ? static_cast<Derived*>(this)->resolve(*t) : nullptr;
      epoch_ = obs::epoch();
    }
    return handle_;
  }

 private:
  Handle* handle_ = nullptr;
  std::uint64_t epoch_ = ~std::uint64_t{0};  // never matches a live epoch
};

}  // namespace detail

class CachedCounter : public detail::CachedBase<Counter, CachedCounter> {
 public:
  explicit CachedCounter(std::string name, LabelSet labels = {})
      : name_(std::move(name)), labels_(std::move(labels)) {}

 private:
  friend detail::CachedBase<Counter, CachedCounter>;
  Counter* resolve(Telemetry& t) {
    return &t.registry.counter(name_, labels_);
  }

  std::string name_;
  LabelSet labels_;
};

class CachedGauge : public detail::CachedBase<Gauge, CachedGauge> {
 public:
  explicit CachedGauge(std::string name, LabelSet labels = {})
      : name_(std::move(name)), labels_(std::move(labels)) {}

 private:
  friend detail::CachedBase<Gauge, CachedGauge>;
  Gauge* resolve(Telemetry& t) { return &t.registry.gauge(name_, labels_); }

  std::string name_;
  LabelSet labels_;
};

class CachedHistogram : public detail::CachedBase<Histogram, CachedHistogram> {
 public:
  explicit CachedHistogram(std::string name, LabelSet labels = {})
      : name_(std::move(name)), labels_(std::move(labels)) {}

 private:
  friend detail::CachedBase<Histogram, CachedHistogram>;
  Histogram* resolve(Telemetry& t) {
    return &t.registry.histogram(name_, labels_);
  }

  std::string name_;
  LabelSet labels_;
};

/// Caches a Tracer track id. Usage:
///
///   if (obs::Tracer* tracer = track_.get()) {
///     tracer->complete(track_.id(), ...);
///   }
///
/// id() is only meaningful while the Tracer* returned by the enclosing
/// get() is in scope.
class CachedTrack : public detail::CachedBase<Tracer, CachedTrack> {
 public:
  explicit CachedTrack(std::string name) : name_(std::move(name)) {}

  std::uint32_t id() const { return id_; }

 private:
  friend detail::CachedBase<Tracer, CachedTrack>;
  Tracer* resolve(Telemetry& t) {
    id_ = t.tracer.track(name_);
    return &t.tracer;
  }

  std::string name_;
  std::uint32_t id_ = 0;
};

}  // namespace cmdare::obs
