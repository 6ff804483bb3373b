// Global telemetry access point.
//
// Instrumented code throughout the repo (train, cloud, cmdare) asks for
// the active Registry / Tracer through the inline accessors below and
// does nothing when none is installed — the disabled path is a single
// thread-local pointer load and branch, cheap enough to leave the probes
// in every hot loop. bench_snapshot's session_steps_per_sec is timed on
// that path, and its obs_overhead_pct prices the enabled one. Telemetry
// is off by default; examples, benches, and tests opt in with
// ScopedTelemetry:
//
//   obs::ScopedTelemetry telemetry;   // install for this scope
//   ... run simulation ...
//   obs::write_chrome_trace(telemetry->tracer, out);
//
// Threading contract (the experiment engine in src/exp runs independent
// simulator replicas on a thread pool): the active bundle is
// **per-thread** — install() sets a thread_local pointer, so each worker
// thread installs its own Telemetry around its replica and instrumented
// code never shares a Registry/Tracer across threads. Neither Registry
// nor Tracer is internally synchronized; the per-replica-sink contract is
// what makes them safe. To combine per-replica telemetry, collect the
// bundles after the threads join and fold them with Registry::merge() /
// Tracer::merge() (exp::run_grid does this in a deterministic order).
// A bundle installed on one thread is never visible to another; threads
// that have not installed anything see telemetry disabled.
// tests/obs_concurrency_test.cpp holds the TSan-clean proof of this
// contract.
#pragma once

#include <cstdint>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cmdare::obs {

/// One bundle of telemetry state. Typically stack- or test-fixture-owned
/// and made visible through install().
struct Telemetry {
  Registry registry;
  Tracer tracer;
  Ledger ledger;
};

namespace detail {
// constinit: no dynamic initializer, so cross-TU access skips the TLS
// init wrapper — keeps the inline accessors a direct TLS load (and
// avoids GCC 12's spurious -fsanitize=null report on wrapper calls).
extern thread_local constinit Telemetry* g_active;
// Bumped by every install() on this thread. Cached series/track handles
// (obs/cached.hpp) key their validity on this, not on the Telemetry
// pointer: a new bundle can reuse a just-destroyed bundle's address (both
// are typically stack-allocated), so pointer identity alone would let a
// stale reference through.
extern thread_local constinit std::uint64_t g_epoch;
}  // namespace detail

/// Installs `telemetry` as the calling thread's sink (nullptr disables —
/// the default). The caller keeps ownership. Other threads are
/// unaffected: the active bundle is thread-local.
void install(Telemetry* telemetry);

/// The calling thread's install counter; changes whenever the active
/// bundle may have changed.
inline std::uint64_t epoch() { return detail::g_epoch; }

/// The calling thread's installed bundle, or nullptr when telemetry is
/// disabled on this thread.
inline Telemetry* telemetry() { return detail::g_active; }

/// Shorthands: nullptr when disabled; never dangling between installs.
inline Registry* registry() {
  Telemetry* t = detail::g_active;
  return t ? &t->registry : nullptr;
}
inline Tracer* tracer() {
  Telemetry* t = detail::g_active;
  return t ? &t->tracer : nullptr;
}
inline Ledger* ledger() {
  Telemetry* t = detail::g_active;
  return t ? &t->ledger : nullptr;
}
inline bool enabled() { return detail::g_active != nullptr; }

/// RAII owner + installer; uninstalls (restoring the thread's previous
/// bundle) on destruction, so nested scopes and tests compose. Must be
/// destroyed on the thread that created it.
class ScopedTelemetry {
 public:
  ScopedTelemetry();
  ~ScopedTelemetry();
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

  Telemetry& get() { return telemetry_; }
  Telemetry* operator->() { return &telemetry_; }

 private:
  Telemetry telemetry_;
  Telemetry* previous_;
};

}  // namespace cmdare::obs
