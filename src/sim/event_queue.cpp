#include "pcpc/sim/event_queue.hpp"

#include "pcpc/common/assert.hpp"

namespace pcpc::sim {

namespace {
/// Retirements between compaction sweeps.  A sweep trims the retired
/// prefix of the state array (cost proportional to what it trims), so
/// the amortized per-operation cost stays O(1).
constexpr std::size_t kCompactEvery = 4096;
}  // namespace

EventId EventQueue::schedule(SimTime t, EventFn fn) {
  PCPC_ASSERT_MSG(fn != nullptr, "cannot schedule a null event callback");
  const EventId id = next_id_++;
  states_.push_back(State::Pending);
  ++live_;
  const std::uint64_t seq = next_seq_++;
  heap_.push(Entry{t, seq, id, std::move(fn)});
  // A stale head is recomputed from the heap, this entry included.
  if (!head_stale_ && (t < head_.time || (t == head_.time && seq < head_.seq))) {
    head_ = {t, seq};
  }
  return id;
}

bool EventQueue::cancel(EventId id) {
  // The heap entry stays behind and is skipped by drop_cancelled().
  if (!is_pending(id)) return false;
  retire(id, State::Cancelled);
  head_stale_ = true;
  return true;
}

void EventQueue::refresh_head() const {
  drop_cancelled();
  head_ = heap_.empty() ? kNoKey : Key{heap_.top().time, heap_.top().seq};
  head_stale_ = false;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  PCPC_ASSERT_MSG(!heap_.empty(), "pop() on empty event queue");
  const Entry& top = heap_.top();
  Fired fired{top.time, top.id, std::move(top.fn)};
  heap_.pop();
  retire(fired.id, State::Fired);
  head_stale_ = true;
  return fired;
}

void EventQueue::clear() {
  while (!heap_.empty()) heap_.pop();
  states_.clear();
  base_ = next_id_;
  live_ = 0;
  retired_ = 0;
  head_ = kNoKey;
  head_stale_ = false;
}

void EventQueue::retire(EventId id, State to) {
  states_[static_cast<std::size_t>(id - base_)] = to;
  --live_;
  if (++retired_ >= kCompactEvery) compact();
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && !is_pending(heap_.top().id)) heap_.pop();
}

void EventQueue::compact() {
  retired_ = 0;
  if (live_ == 0) {
    // Everything issued so far is retired; stale heap entries (cancelled,
    // not yet popped off) are dropped with their stamps.
    drop_cancelled();
    states_.clear();
    base_ = next_id_;
    return;
  }
  // Trim the retired prefix.  The scan stops at the first live entry, so
  // its cost is bounded by what it reclaims.
  std::size_t prefix = 0;
  while (prefix < states_.size() && states_[prefix] != State::Pending) ++prefix;
  if (prefix > 0) {
    states_.erase(states_.begin(),
                  states_.begin() + static_cast<std::ptrdiff_t>(prefix));
    base_ += prefix;
  }
}

}  // namespace pcpc::sim
