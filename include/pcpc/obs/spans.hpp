// Folding sampled item-lifecycle spans out of a merged event stream.
//
// Each sampled item leaves up to four kItemStage events (produce,
// enqueue, drain-start, handler-done) keyed by one item id, possibly
// recorded by different processes (origin field).  The wake stage is not
// stamped: it is *joined* here against the kWakeup events the wakeup
// ledger already records — the latest wakeup on the draining (origin,
// core) track at or before the item's drain-start.  Joining instead of
// stamping keeps the identity "sampled paid wakes ⊆ ledger wakes" true
// by construction: a span can never claim a wake the ledger didn't see.
//
// Items whose stages only partially match (producer sampled seq k but
// the consumer's kth pop was a different item because drops shifted the
// stream) are counted as orphans, not guessed at — the stage histograms
// only ever contain latencies between stages of provably the same item.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pcpc/obs/events.hpp"

namespace pcpc::obs {

/// Bins of every obs histogram; 64 cover every int64 value.
inline constexpr std::size_t kHistogramBins = 64;

/// The one log2 binning of obs histograms: bin i counts the values in
/// [2^i, 2^(i+1)), and bin 0 also takes every value below 1.  So bin 0
/// is every value <= 1, bin 1 is [2, 4), bin 10 is [1024, 2048).
inline std::size_t log2_bin(std::int64_t value) {
  if (value <= 0) return 0;
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(value)) - 1);
}

/// One latency histogram, binned by log2_bin(); a negative sample counts
/// as 0 ns.
struct StageHistogram {
  std::uint64_t count = 0;
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;
  std::array<std::uint64_t, kHistogramBins> bins{};

  void add(std::int64_t ns);
};

/// One fully- or partially-joined sampled item.
struct ItemSpan {
  std::uint64_t item_id = 0;
  std::uint32_t pair = kNoConsumer;  ///< from the produce stage when present
  std::uint16_t produce_origin = kOriginLocal;
  std::int64_t produce_ns = -1;
  std::int64_t enqueue_ns = -1;
  std::int64_t wake_ns = -1;  ///< joined ledger wakeup; -1 = drained awake
  bool wake_paid = false;
  std::int64_t drain_start_ns = -1;
  std::int64_t handler_done_ns = -1;

  bool complete() const {
    return produce_ns >= 0 && enqueue_ns >= 0 && drain_start_ns >= 0 &&
           handler_done_ns >= 0;
  }
  /// End-to-end latency; valid only when complete().
  std::int64_t end_to_end_ns() const { return handler_done_ns - produce_ns; }
};

/// The folded result.
struct SpanFold {
  std::vector<ItemSpan> items;  ///< all sampled items, complete or not

  std::uint64_t stage_events = 0;    ///< kItemStage events consumed
  std::uint64_t complete_items = 0;  ///< all four stamped stages joined
  std::uint64_t orphan_stages = 0;   ///< stages of items that never completed
  std::uint64_t joined_wakes = 0;    ///< spans that adopted a ledger wakeup
  std::uint64_t joined_paid_wakes = 0;  ///< ... of which the wake was paid

  StageHistogram produce_to_enqueue;
  StageHistogram enqueue_to_drain;
  StageHistogram wake_to_drain;  ///< only spans with a joined wake
  StageHistogram drain_to_done;
  StageHistogram end_to_end;
};

/// Folds a timestamp-sorted event stream (Session::events() order).
/// Non-span events other than kWakeup are ignored.
SpanFold fold_spans(const std::vector<Event>& events);

}  // namespace pcpc::obs
