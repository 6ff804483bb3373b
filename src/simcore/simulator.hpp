// Discrete-event simulation engine.
//
// Everything time-dependent in this repository — instance lifecycles,
// revocations, training steps, parameter-server queues, checkpoint uploads —
// runs on this engine. It is a two-tier ladder/calendar queue over a slab
// arena of event records:
//
//   * time is a double in seconds since simulation start;
//   * events are callbacks scheduled at absolute or relative times; the
//     callable lives in a recycled arena slot (small captures stay inline —
//     see inline_fn.hpp — so steady-state dispatch allocates nothing);
//   * pending events sit in one of three places: the *active rung* (a
//     sorted array holding the batch currently being drained — pops just
//     advance a cursor; mid-drain arrivals binary-insert), one of
//     kNearBuckets *near buckets* (unsorted vectors covering
//     [near_start_, near_end_) in equal widths, ordered lazily when a
//     bucket is activated into the rung), or the *far tier* (one unsorted
//     vector for everything at or past near_end_). When the near tier
//     drains, the far tier is re-bucketed across the span of its pending
//     times. Queue entries are 24-byte PODs; amortized cost per event is
//     O(log bucket-occupancy), not O(log total);
//   * the firing order is the total order (when, sequence): ties are broken
//     by insertion sequence, so runs are fully deterministic — the ladder
//     is an implementation detail that must never reorder equal-time
//     events. Bucket placement is a monotone function of `when`, which is
//     what makes the per-bucket sort equivalent to a global sort;
//   * scheduling returns an EventHandle identifying the arena slot by
//     (index, generation). Cancellation is tombstone-free: cancel()
//     releases the slot immediately (bumping its generation), and the
//     stale queue entry is discarded when it surfaces because its recorded
//     generation no longer matches the slot. A stale handle — fired,
//     cancelled, or its slot since re-leased — reports not-pending via the
//     same generation check. Handles are trivially copyable but must not
//     outlive the simulator that issued them.
//
// The engine is single-threaded by design: determinism and replayability
// matter more for a measurement-reproduction study than parallel dispatch.
// Throughput still matters — campaign sweeps run millions of events per
// replica — which is what this design buys; see the sim_* metrics of
// BENCH_micro.json (bench_snapshot --kind micro) for the numbers.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/inline_fn.hpp"
#include "simcore/observer.hpp"

namespace cmdare::simcore {

/// Simulated time in seconds.
using SimTime = double;

constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::infinity();

class Simulator;

/// Identifies a scheduled event for cancellation: the arena slot index plus
/// the generation the slot had when the event was scheduled. Fired or
/// cancelled events release their slot and bump its generation, so a stale
/// handle (even one whose slot has been re-leased to a newer event) reports
/// not-pending. Handles do not keep the simulator alive — do not use one
/// after its simulator is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// True while the event is scheduled and not yet fired or cancelled.
  bool pending() const;
  /// Cancels the event; returns false if it already fired or was cancelled.
  bool cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (>= now, or it throws).
  /// `tag` is an optional callsite tag for the profiling observer; it must
  /// be a string literal (the engine keeps only the pointer). Captures up
  /// to InlineFn<bool>::kInlineBytes stay inline in the arena slot — no
  /// heap allocation.
  template <typename Fn>
  EventHandle schedule_at(SimTime when, Fn&& fn, const char* tag = nullptr) {
    require_schedulable_time(when);
    require_non_empty(fn, "Simulator::schedule_at: empty callback");
    const SlotRef ref = lease_slot();
    Slot& s = slot(ref.slot);
    s.fn.assign(Once<std::decay_t<Fn>>{std::forward<Fn>(fn)});
    s.period = 0.0;
    s.tag = tag;
    enqueue(when, ref, tag);
    return EventHandle(this, ref.slot, ref.gen);
  }
  EventHandle schedule_at(SimTime when, std::nullptr_t,
                          const char* tag = nullptr);

  /// Schedules `fn` `delay` seconds from now (delay >= 0, finite).
  template <typename Fn>
  EventHandle schedule_after(SimTime delay, Fn&& fn,
                             const char* tag = nullptr) {
    require_non_negative_delay(delay);
    return schedule_at(now_ + delay, std::forward<Fn>(fn), tag);
  }
  EventHandle schedule_after(SimTime delay, std::nullptr_t,
                             const char* tag = nullptr);

  /// Periodic event: fires `fn` every `period` seconds (first firing at
  /// now + period) until `fn` returns false. period must be positive and
  /// finite. The recurrence owns its arena slot for its whole lifetime —
  /// each firing re-enqueues the same slot — so a tick that wants to stop
  /// returns false instead of cancelling a handle; this is what keeps
  /// run() terminating once the periodic work (e.g. a market tick with no
  /// tenants left) declares itself done.
  template <typename Fn>
  void schedule_every(SimTime period, Fn&& fn, const char* tag = nullptr) {
    require_valid_period(period);
    require_non_empty(fn, "Simulator::schedule_every: empty callback");
    const SlotRef ref = lease_slot();
    Slot& s = slot(ref.slot);
    s.fn.assign(std::forward<Fn>(fn));
    s.period = period;
    s.tag = tag;
    enqueue(now_ + period, ref, tag);
  }
  void schedule_every(SimTime period, std::nullptr_t,
                      const char* tag = nullptr);

  /// Runs until the event queue empties. Returns the number of events fired.
  std::uint64_t run();
  /// Runs until the queue empties or simulated time would exceed
  /// `deadline`; events strictly after the deadline remain queued and
  /// now() is advanced to the deadline.
  std::uint64_t run_until(SimTime deadline);
  /// Fires exactly one event if any is pending; returns whether one fired.
  bool step();

  /// Events currently scheduled and neither fired nor cancelled.
  /// (Cancellation releases the slot immediately — there is no tombstone
  /// residue to count.)
  std::size_t queued_events() const { return live_; }
  /// Total events fired since construction.
  std::uint64_t events_fired() const { return fired_; }
  /// High-water mark of the slot arena (slots are recycled through a free
  /// list, so this is the peak number of simultaneously pending events,
  /// not a running total). Exposed for tests and benches that pin the
  /// zero-allocation steady state.
  std::size_t arena_slots() const { return slot_count_; }

  /// Registers a profiling observer (nullptr removes it). The observer is
  /// not owned and must outlive the simulator or be removed first. With no
  /// observer the engine skips all instrumentation (one branch per event).
  void set_observer(SimObserver* observer) { observer_ = observer; }
  SimObserver* observer() const { return observer_; }

 private:
  friend class EventHandle;

  /// Adapts a void() callback to the slot's uniform bool() payload: a
  /// one-shot firing never re-enqueues.
  template <typename F>
  struct Once {
    F fn;
    bool operator()() {
      fn();
      return false;
    }
  };

  /// One arena slot: the callable payload plus the generation that stamps
  /// every queue entry and handle referring to the current lease.
  /// Metadata leads so generation probes and fire dispatch read the
  /// slot's first cache line; the capture buffer trails.
  struct Slot {
    std::uint32_t gen = 0;
    SimTime period = 0.0;  // 0 = one-shot
    const char* tag = nullptr;
    InlineFn<bool> fn;
  };

  /// POD queue entry. `gen` is compared against the slot's current
  /// generation when the entry surfaces; a mismatch means the event was
  /// cancelled (or, for the far tier, already re-bucketed) and the entry
  /// is dropped without firing.
  struct QEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Ascending (when, seq) order — the rung is sorted with this, so the
  /// next event to fire is at the drain cursor; ties break by insertion
  /// sequence.
  struct Earlier {
    bool operator()(const QEntry& a, const QEntry& b) const {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };

  struct SlotRef {
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static constexpr std::size_t kNearBuckets = 256;

  void require_schedulable_time(SimTime when) const;
  void require_non_negative_delay(SimTime delay) const;
  void require_valid_period(SimTime period) const;
  template <typename F>
  static void require_non_empty(const F& fn, const char* what) {
    // Catches empty std::function / null function pointers; stateful
    // lambdas are not bool-testable and skip the check.
    if constexpr (std::is_constructible_v<bool, const F&>) {
      if (!static_cast<bool>(fn)) throw std::invalid_argument(what);
    }
  }

  SlotRef lease_slot();
  void release_slot(std::uint32_t slot);
  Slot& slot(std::uint32_t idx) {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }
  const Slot& slot(std::uint32_t idx) const {
    return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)];
  }
  bool slot_live(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slot_count_ && slot(idx).gen == gen;
  }
  bool cancel_slot(std::uint32_t slot, std::uint32_t gen);

  void enqueue(SimTime when, SlotRef ref, const char* tag);
  void insert(const QEntry& entry);
  /// Skips stale entries until the ladder's front is a live event (false
  /// when nothing is pending). Activates buckets / re-buckets the far tier
  /// as needed; never advances the clock.
  bool settle_front();
  bool reseed_from_far();
  void reset_ladder();
  QEntry pop_front();
  void fire(const QEntry& entry);
  void finish_periodic(const QEntry& entry, SimTime period, bool keep,
                       InlineFn<bool> fn, const char* tag);
  bool fire_next();

  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  SimObserver* observer_ = nullptr;

  // Slot arena: fixed-size slabs keep slot addresses stable (growing the
  // arena never relocates a live callable), and free_ is a LIFO of
  // released indices so hot slots stay cache-warm. slot_count_ is the
  // high-water mark of pending events.
  static constexpr std::size_t kSlabBits = 9;
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabBits;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::size_t slot_count_ = 0;
  std::vector<std::uint32_t> free_;

  // Ladder. Unconfigured state (all boundaries -inf, next_bucket_ past the
  // end) routes every insert to the far tier; the first pop re-buckets.
  std::vector<QEntry> active_;  // the current rung, sorted ascending and
                                // drained by advancing active_pos_
  std::size_t active_pos_ = 0;
  std::vector<QEntry> buckets_[kNearBuckets];
  std::vector<QEntry> far_;
  SimTime near_start_ = -kTimeInfinity;
  SimTime near_end_ = -kTimeInfinity;
  SimTime active_end_ = -kTimeInfinity;  // inserts below this join the rung
  SimTime bucket_width_ = 1.0;
  SimTime inv_bucket_width_ = 1.0;  // placement multiplies, never divides
  std::size_t next_bucket_ = kNearBuckets;
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slot_live(slot_, gen_);
}

inline bool EventHandle::cancel() {
  return sim_ != nullptr && sim_->cancel_slot(slot_, gen_);
}

}  // namespace cmdare::simcore
