#include "pcpc/obs/spans.hpp"

#include <algorithm>

namespace pcpc::obs {

void StageHistogram::add(std::int64_t ns) {
  if (ns < 0) ns = 0;
  if (count == 0) {
    min_ns = max_ns = ns;
  } else {
    min_ns = std::min(min_ns, ns);
    max_ns = std::max(max_ns, ns);
  }
  ++count;
  ++bins[Registry::log2_bin(ns)];
}

namespace {

/// Wakeup timeline of one (origin, core) track, for the wake join.
struct WakeTrack {
  std::vector<std::int64_t> ts;  ///< sorted (events arrive ts-sorted)
  std::vector<bool> paid;
};

}  // namespace

SpanFold fold_spans(const std::vector<Event>& events) {
  SpanFold fold;
  // Key items by (pair-agnostic) item id: the id already encodes the
  // pair on the thread/sim hosts (consumer << 32 | seq) and the lane on
  // the ipc host (lane << 48 | lane position).
  std::map<std::uint64_t, ItemSpan> items;
  std::map<std::uint32_t, WakeTrack> wakes;  ///< key: origin << 16 | core

  for (const Event& e : events) {
    if (e.kind == EventKind::kWakeup) {
      WakeTrack& track =
          wakes[(static_cast<std::uint32_t>(e.origin) << 16) | e.core];
      track.ts.push_back(e.ts_ns);
      track.paid.push_back(e.paid());
      continue;
    }
    if (e.kind != EventKind::kItemStage) continue;
    ++fold.stage_events;
    ItemSpan& span = items[static_cast<std::uint64_t>(e.arg0)];
    span.item_id = static_cast<std::uint64_t>(e.arg0);
    switch (static_cast<ItemStage>(e.arg1)) {
      case ItemStage::kProduce:
        span.produce_ns = e.ts_ns;
        span.pair = e.consumer;
        span.produce_origin = e.origin;
        break;
      case ItemStage::kEnqueue:
        span.enqueue_ns = e.ts_ns;
        break;
      case ItemStage::kDrainStart:
        span.drain_start_ns = e.ts_ns;
        // Join the wake stage: latest ledger wakeup on the draining
        // track at or before this drain-start.  The drain event and the
        // wakeup it rode on may carry equal timestamps (sim host), so
        // the bound is inclusive (upper_bound, then step back).
        {
          const auto it = wakes.find(
              (static_cast<std::uint32_t>(e.origin) << 16) | e.core);
          if (it != wakes.end() && !it->second.ts.empty()) {
            const auto& ts = it->second.ts;
            const auto pos = std::upper_bound(ts.begin(), ts.end(), e.ts_ns);
            if (pos != ts.begin()) {
              const std::size_t i = static_cast<std::size_t>(pos - ts.begin()) - 1;
              span.wake_ns = ts[i];
              span.wake_paid = it->second.paid[i];
            }
          }
        }
        break;
      case ItemStage::kHandlerDone:
        span.handler_done_ns = e.ts_ns;
        break;
    }
  }

  fold.items.reserve(items.size());
  for (auto& [id, span] : items) {
    (void)id;
    if (span.complete()) {
      ++fold.complete_items;
      fold.produce_to_enqueue.add(span.enqueue_ns - span.produce_ns);
      fold.enqueue_to_drain.add(span.drain_start_ns - span.enqueue_ns);
      fold.drain_to_done.add(span.handler_done_ns - span.drain_start_ns);
      fold.end_to_end.add(span.end_to_end_ns());
      if (span.wake_ns >= 0) {
        ++fold.joined_wakes;
        if (span.wake_paid) ++fold.joined_paid_wakes;
        fold.wake_to_drain.add(span.drain_start_ns - span.wake_ns);
      }
    } else {
      fold.orphan_stages +=
          static_cast<std::uint64_t>(span.produce_ns >= 0) +
          static_cast<std::uint64_t>(span.enqueue_ns >= 0) +
          static_cast<std::uint64_t>(span.drain_start_ns >= 0) +
          static_cast<std::uint64_t>(span.handler_done_ns >= 0);
    }
    fold.items.push_back(std::move(span));
  }
  return fold;
}

}  // namespace pcpc::obs
