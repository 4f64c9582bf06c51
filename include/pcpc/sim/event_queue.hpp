// Pending-event set for the discrete-event simulator.
//
// A binary min-heap ordered by (time, sequence number) — the sequence
// number makes simultaneous events fire in scheduling order, which keeps
// every experiment fully deterministic.  Cancellation is lazy: cancelled
// entries stay in the heap and are skipped on pop.
//
// Liveness is tracked by a flag-stamped dense array instead of a hash
// set: event ids are handed out sequentially, so `states_[id - base_]`
// resolves a cancel()/pending() probe with one bounds check and one byte
// load — no hashing, no buckets, no per-operation allocation (the seed
// kept an unordered_set of live ids, which put a hash insert+erase on
// every schedule/fire pair).  Retired prefixes of the array are trimmed
// amortized, and the array resets entirely whenever the queue drains, so
// memory stays proportional to the live+recently-retired window rather
// than to all ids ever issued.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "pcpc/common/types.hpp"

namespace pcpc::sim {

/// Identifies a scheduled event for cancellation.
using EventId = std::uint64_t;

/// Callback invoked when an event fires.  Receives the firing time.
using EventFn = std::function<void(SimTime)>;

/// Min-heap of timed events with lazy cancellation.
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`; returns a handle for cancel().
  EventId schedule(SimTime t, EventFn fn);

  /// Cancels a pending event.  Returns false when the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  /// True when the given event is still pending.
  bool pending(EventId id) const { return is_pending(id); }

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; kNever when empty.
  SimTime next_time() const;

  /// Firing order of an event: time, then scheduling order.
  struct Key {
    SimTime time;
    std::uint64_t seq;
  };

  /// Orders after every real key.
  static constexpr Key kNoKey{kNever, std::numeric_limits<std::uint64_t>::max()};

  /// Key of the earliest live event; kNoKey when empty.
  Key next_key() const;

  /// Draws the next sequence number without scheduling anything.  An
  /// entry kept outside the heap (a replay stream's next arrival) takes
  /// its place in the tie order this way, as if it had been scheduled now.
  std::uint64_t take_seq() { return next_seq_++; }

  /// A fired event: its scheduled time, handle and callback.
  struct Fired {
    SimTime time;
    EventId id;
    EventFn fn;
  };

  /// Removes and returns the earliest live event.  Must not be empty.
  Fired pop();

  /// Drops every pending event.
  void clear();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    // Moved out on pop; mutable because priority_queue::top() is const.
    mutable EventFn fn;

    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Liveness stamp of one issued id.  One byte; never goes back to
  /// Pending, so a stale heap entry can only be skipped, never revived.
  enum class State : std::uint8_t { Pending, Fired, Cancelled };

  bool is_pending(EventId id) const {
    // Ids below base_ were retired and trimmed; ids at or above next_id_
    // were never issued.  Both probe as "not pending", which is exactly
    // the contract cancel()/pending() had with the id set.
    return id >= base_ && id < next_id_ &&
           states_[static_cast<std::size_t>(id - base_)] == State::Pending;
  }

  void retire(EventId id, State to);
  void drop_cancelled() const;
  void compact();

  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  /// states_[i] stamps event id base_ + i.
  std::vector<State> states_;
  EventId base_ = 1;         ///< id of states_[0]
  std::size_t live_ = 0;     ///< entries stamped Pending
  std::size_t retired_ = 0;  ///< retirements since the last compact()
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
};

}  // namespace pcpc::sim
