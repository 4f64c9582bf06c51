#include "pcpc/sim/simulator.hpp"

#include "pcpc/obs/obs.hpp"
#include "pcpc/sim/replay.hpp"

namespace pcpc::sim {

namespace {

/// `a` where `mask` is all ones, `b` where it is zero, without a branch
/// (a ternary on the same condition compiles to one).
template <typename T>
T pick(std::uint64_t mask, T a, T b) {
  return static_cast<T>((static_cast<std::uint64_t>(a) & mask) |
                        (static_cast<std::uint64_t>(b) & ~mask));
}

}  // namespace

void replay(Simulator& simulator, std::span<const SimTime> timestamps, SimTime horizon,
            std::function<void(SimTime)> fn) {
  PCPC_ASSERT_MSG(fn != nullptr, "replay callback must be set");
  simulator.add_stream(timestamps, horizon, std::move(fn));
}

void Simulator::add_stream(std::span<const SimTime> timestamps, SimTime horizon,
                           EventFn fn) {
  if (timestamps.empty() || timestamps.front() >= horizon) return;
  PCPC_ASSERT_MSG(timestamps.front() >= now_, "replay timestamps must be in the future");
  if (used_ == heads_.size()) {
    const std::size_t leaves = std::max<std::size_t>(1, 2 * heads_.size());
    heads_.resize(leaves, EventQueue::kNoKey);
    streams_.resize(leaves);
    tree_.resize(leaves);
  }
  const std::size_t slot = used_++;
  const SimTime* first = timestamps.data();
  streams_[slot] = std::make_unique<Stream>(
      Stream{first, first + timestamps.size(), horizon, std::move(fn)});
  heads_[slot] = {*first, queue_.take_seq()};
  ++live_;
  rebuild_tree();
}

void Simulator::rebuild_tree() {
  // Play every match bottom-up: winner[n] is node n's winner, and the
  // node keeps its loser.  Leaf s is node leaves + s.
  const std::size_t leaves = heads_.size();
  std::vector<std::uint32_t> winner(2 * leaves);
  for (std::size_t s = 0; s < leaves; ++s) winner[leaves + s] = static_cast<std::uint32_t>(s);
  for (std::size_t n = leaves - 1; n > 0; --n) {
    const std::uint32_t a = winner[2 * n];
    const std::uint32_t b = winner[2 * n + 1];
    const bool b_first = before(heads_[b], heads_[a]);
    winner[n] = b_first ? b : a;
    tree_[n] = b_first ? a : b;
  }
  tree_[0] = winner[1];
}

void Simulator::replay_winner() {
  // Branch-free matches: which stream fires next is as good as random, so
  // a data-dependent branch per level would mostly mispredict.  The path's
  // losers do not depend on the matches, so their keys load ahead; only
  // the running winner and its key are carried from match to match.
  std::uint32_t winner = tree_[0];
  EventQueue::Key key = heads_[winner];
  for (std::size_t n = (heads_.size() + winner) / 2; n > 0; n /= 2) {
    const std::uint32_t other = tree_[n];
    const EventQueue::Key other_key = heads_[other];
    const std::uint64_t other_wins = 0 - static_cast<std::uint64_t>(before(other_key, key));
    tree_[n] = pick(other_wins, winner, other);
    winner = pick(other_wins, other, winner);
    key = {pick(other_wins, other_key.time, key.time), pick(other_wins, other_key.seq, key.seq)};
  }
  tree_[0] = winner;
}

bool Simulator::fire_next(SimTime until) {
  const EventQueue::Key event = queue_.next_key();
  if (live_ != 0 && before(heads_[tree_[0]], event)) {
    if (heads_[tree_[0]].time > until) return false;
    fire_arrival();
    return true;
  }
  if (queue_.empty() || event.time > until) return false;
  auto fired = queue_.pop();
  PCPC_ASSERT_MSG(fired.time >= now_, "event queue returned an event in the past");
  now_ = fired.time;
  count_dispatch();
  fired.fn(now_);
  return true;
}

void Simulator::fire_arrival() {
  // A stream the callback starts takes a new slot and keys after this
  // one (its time is at least now_, its seq is newer), so this slot is
  // still the winner when the callback returns, even if the tree was
  // rebuilt meanwhile.
  const std::uint32_t slot = tree_[0];
  Stream& stream = *streams_[slot];
  now_ = heads_[slot].time;
  count_dispatch();
  stream.fn(now_);
  ++stream.next;
  if (stream.next != stream.end && *stream.next < stream.horizon) {
    PCPC_ASSERT_MSG(*stream.next >= now_, "replay timestamps must be in the future");
    // Drawn after the callback's own schedules: where an at() from
    // inside the callback would have drawn it.
    heads_[slot] = {*stream.next, queue_.take_seq()};
  } else {
    heads_[slot] = EventQueue::kNoKey;
    streams_[slot].reset();
    if (--live_ == 0) {
      streams_.clear();
      heads_.clear();
      tree_.clear();
      used_ = 0;
      return;
    }
  }
  replay_winner();
}

void Simulator::run_until(SimTime until) {
  while (fire_next(until)) {
  }
  if (now_ < until) now_ = until;
  flush_obs();
}

void Simulator::run() {
  while (step()) {
  }
  flush_obs();
}

void Simulator::flush_obs() {
  if (dispatched_ == obs_flushed_) return;
  obs::count_sim_events(dispatched_ - obs_flushed_);
  obs_flushed_ = dispatched_;
}

}  // namespace pcpc::sim
