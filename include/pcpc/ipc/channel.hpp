// Crash-safe cross-process MPSC channel over one shm segment.
//
// Endpoint objects (one Consumer, up to kMaxProducers Producers, each in
// its own process) wrap the shared layout from layout.hpp.  The lanes —
// one single-writer ring per producer, published at commit — are
// documented there; this header adds the process-facing machinery:
//
//   - registry join/leave with per-peer heartbeats,
//   - the reaper (dead-peer detection, counter folds, slot reuse),
//   - the futex doorbell with *exact* paid-wakeup accounting: a producer
//     pays a futex_wake only after winning the kConsumerSleeping ->
//     kConsumerWoken CAS, so every increment of ChannelHeader::futex_wakes
//     creates exactly one kConsumerWoken token, and the consumer consumes
//     each token exactly once (its wake-side exchange back to awake).
//     The obs ledger's paid-wakeup total therefore equals the shm futex
//     wake counter identically, not statistically.
//
// Failure semantics (the contract the kill-chaos harness checks):
//   - SIGKILLed producer: everything it published is delivered, nothing
//     it had not published is ever visible; the consumer keeps draining
//     and never wedges.  The reaper folds its counters and frees its
//     registry slot; the next producer there resumes at the lane's
//     published cursors.
//   - SIGSTOPped producer: alive by definition; it stalls only its own
//     lane, and its write completes after SIGCONT.
//   - Dead consumer: producers observe it via the registry and fail
//     pushes with PushResult::kConsumerDead after bounded retry/backoff.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "pcpc/common/assert.hpp"
#include "pcpc/ipc/futex.hpp"
#include "pcpc/ipc/layout.hpp"
#include "pcpc/ipc/shm.hpp"
#include "pcpc/ipc/telemetry.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::ipc {

/// CLOCK_MONOTONIC in nanoseconds (shared timebase for heartbeats/spans).
std::int64_t now_ns();

/// Liveness probe: false when `pid` is gone OR a zombie (SIGKILLed
/// children stay zombies until the parent reaps them; for the reaper a
/// zombie is dead — it will never publish again).
bool pid_alive(std::int32_t pid);

/// Channel geometry + protocol timing, fixed at creation.
struct ChannelConfig {
  std::size_t capacity = 1024;  ///< admission bound on the total fill of the lanes
  /// No effect: lanes never reclaim a slot, so nothing is aged.  Kept so
  /// callers that set it still compile.
  std::int64_t lease_ns = 5'000'000;
  std::int64_t heartbeat_period_ns = 1'000'000;  ///< peer refresh Delta
  std::int64_t heartbeat_timeout_ns = 0;  ///< staleness bound; 0 = 8 * period
  std::uint64_t wake_threshold = 0;       ///< doorbell at fill >= this; 0 = cap/2
  /// 1-in-N item-lifecycle sampling, shared by every peer (the lane
  /// position is the sample key, so both sides agree without tagging
  /// payloads).  0 disarms spans on this channel.
  std::uint64_t span_sample_every = 0;
  /// Record channel: logical capacity (record footprint bytes) of each
  /// producer's record lane.  0 = item channel.  A channel carries one
  /// kind only: items (push/drain) or records (push_record/drain_records),
  /// and its capacity and fill count that kind.
  std::size_t payload_ring_bytes = 0;
  std::uint32_t payload_max_record = 16u << 10;  ///< max payload bytes per record
};

/// Producer-side retry policy for a full lane / slow consumer.
struct ProducerConfig {
  int full_retries = 64;
  std::int64_t initial_backoff_ns = 2'000;
  std::int64_t max_backoff_ns = 1'000'000;
  AttachOptions attach;
};

enum class PushResult : std::uint8_t {
  kOk = 0,
  kFull = 1,          ///< still full after bounded retry/backoff
  kConsumerDead = 2,  ///< registry says nobody will ever drain this
};

const char* push_result_name(PushResult r);

/// Crash-injection points for the kill-chaos harness: the hook runs
/// between protocol steps so a test child can raise(SIGKILL) exactly
/// there.  Production code never sets it.
enum class CrashPoint : std::uint8_t {
  kBeforePublish = 0,  ///< item/record written into the lane, tail not yet moved
  kAfterPublish = 1,   ///< tail moved (visible to the consumer), not yet counted
};
inline constexpr int kCrashPointCount = 2;

/// Span item id of the item (record) at position `pos` of lane `lane`:
/// producer and consumer derive it independently, without tagging
/// payloads.
inline constexpr std::uint64_t span_item_id(std::size_t lane, std::uint64_t pos) {
  return (static_cast<std::uint64_t>(lane) << 48) | (pos & ((std::uint64_t{1} << 48) - 1));
}

/// Everything the conservation harness asserts on, read from shm.  The
/// item fields count items on an item channel and records on a record
/// channel; they are sums of lane cursors, so
///   admitted == consumed + residue
/// holds at every point, SIGKILL included.
struct ConservationReport {
  std::uint64_t admitted = 0;   ///< published into the lanes
  std::uint64_t consumed = 0;   ///< drained out of the lanes
  std::uint64_t reclaimed = 0;  ///< always 0: lanes never reclaim (kept for callers that check it)
  std::uint64_t residue = 0;    ///< admitted - consumed: published, not yet drained
  std::uint64_t acked_pushes = 0;  ///< producer-counted successful publishes
  std::uint64_t dropped = 0;       ///< producer-counted rejects (full / dead)
  std::uint64_t futex_wakes = 0;   ///< paid wakes (producer-side count)
  std::uint64_t doorbell = 0;
  std::uint64_t peers_reaped = 0;
  // Record channel, byte-granular (all zero on an item channel):
  //   var_admitted_bytes == var_consumed_bytes + var_padding_bytes
  //                         + var_residue_bytes
  // where admitted = the lanes' published tails (every byte a producer
  // published, wrap padding included), consumed/padding = released
  // record footprints and wrap pads, residue = published, not yet
  // released.  Exact at every point for the same reason as above.
  std::uint64_t var_admitted_bytes = 0;
  std::uint64_t var_consumed_bytes = 0;   ///< released record footprints
  std::uint64_t var_padding_bytes = 0;    ///< released wrap padding
  std::uint64_t var_residue_bytes = 0;    ///< published, not yet released
  std::uint64_t var_delivered_bytes = 0;  ///< payload bytes handed to drain_records
};

/// Reads the report off any mapped channel segment.
ConservationReport read_report(const ChannelHeader& hdr);

/// Why Consumer::wait returned.
enum class WakeKind : std::uint8_t {
  kDoorbell = 0,  ///< paid wake: a producer rang and futex_wake'd us
  kTimeout = 1,   ///< free wake: slot timer Delta elapsed
  kPoll = 2,      ///< work was already visible; never slept
};

/// The single draining endpoint.  Creates and owns the segment; unlinks
/// it on destruction.  All methods are single-threaded (one consumer).
class Consumer {
 public:
  Consumer() = default;
  ~Consumer();
  Consumer(Consumer&&) noexcept;
  Consumer& operator=(Consumer&&) noexcept;
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  static std::optional<Consumer> create(const std::string& shm_name,
                                        const ChannelConfig& config,
                                        std::string* error = nullptr);

  /// Pops published items lane by lane, round-robin and in bulk per lane,
  /// invoking `fn(value)` per item, until every lane is empty or
  /// `max_items` is reached.  Items arrive in FIFO order per producer; a
  /// dead producer's published items are delivered like any others.
  /// Returns items consumed.  Only meaningful on an item channel.
  template <typename Fn>
  std::size_t drain(Fn&& fn, std::size_t max_items = SIZE_MAX) {
    PCPC_ASSERT_MSG(item_lanes_[0] != nullptr, "drain() on a record channel");
    return drain_lanes(item_lanes_, max_items,
                       [&](ItemLane& lane, std::size_t idx, std::size_t budget) {
                         std::uint64_t batch[kDrainBatch];
                         const std::uint64_t first = lane.head_index();
                         const std::size_t got = lane.pop_bulk(
                             std::span<std::uint64_t>(batch, std::min(budget, kDrainBatch)));
                         for (std::size_t i = 0; i < got; ++i) {
                           deliver(idx, first + i, [&] { fn(batch[i]); });
                         }
                         return got;
                       });
  }

  /// Varlen drain: the same round-robin over the record lanes.  Each
  /// committed record is handed to `fn(payload)` as a zero-copy
  /// in-segment span (valid only during the call); every lane's drained
  /// bytes are released once per bulk (one cursor publication).  Returns
  /// records delivered.  Only meaningful on a record channel.
  template <typename Fn>
  std::size_t drain_records(Fn&& fn, std::size_t max_records = SIZE_MAX) {
    PCPC_ASSERT_MSG(record_lanes_[0] != nullptr, "drain_records() on an item channel");
    return drain_lanes(record_lanes_, max_records,
                       [&](RecordLane& lane, std::size_t idx, std::size_t budget) {
                         // Every claimed record is released before drain()
                         // returns, so the released count is the next
                         // record's position.
                         std::uint64_t pos = lane.released_records();
                         return lane.drain(
                             [&](std::span<const std::byte> payload) {
                               deliver(idx, pos++, [&] { fn(payload); });
                             },
                             std::min(budget, kDrainBatch));
                       });
  }

  /// Parks on the futex doorbell for up to `timeout_ns` once the lanes
  /// look empty, attributing the wake through pcpc::obs (paid when a
  /// producer futex_wake'd us, free/scheduled on timeout).  Returns
  /// immediately with kPoll when work is already visible.
  WakeKind wait(std::int64_t timeout_ns);

  /// Dead-peer detection: producers with stale heartbeats whose pid is
  /// gone are marked dead, their telemetry rings drained, their counters
  /// (including telemetry cells) folded into the retired tallies, and
  /// their registry slots freed for reuse.  Their lanes need nothing:
  /// what they published is still delivered, what they had not published
  /// was never visible.  Returns the number of peers reaped.
  std::size_t reap();

  /// Drains every producer's shm trace ring into the local obs::Session
  /// (events re-stamped with origin = registry index + 1).  No-op when
  /// no session is installed.  Returns events merged.
  std::size_t drain_telemetry();

  /// Merged cross-process metric totals (live peer cells + retired).
  TelemetrySnapshot telemetry() const { return merged_telemetry(*hdr_); }

  void heartbeat();

  ConservationReport report() const { return read_report(*hdr_); }
  const ChannelHeader& header() const { return *hdr_; }
  const std::string& shm_name() const { return segment_.name(); }
  bool valid() const { return hdr_ != nullptr; }

  /// True when any lane holds a published item (record) not yet drained.
  bool has_visible_work() const;

 private:
  static constexpr std::size_t kDrainBatch = 64;  ///< items per lane per turn

  /// Visits the lanes in use round-robin, resuming where the last call
  /// stopped, until a whole round finds every lane empty or `max` items
  /// were taken.  `pop(lane, idx, budget)` takes at most `budget` items
  /// from one lane and returns how many.
  template <typename Lane, typename Pop>
  std::size_t drain_lanes(const std::array<Lane*, kMaxProducers>& lanes, std::size_t max,
                          Pop&& pop) {
    maybe_heartbeat();
    const std::size_t in_use = hdr_->lanes_in_use.load(std::memory_order_acquire);
    std::size_t n = 0;
    for (std::size_t idle = 0; idle < in_use && n < max;) {
      const std::size_t idx = next_lane_ < in_use ? next_lane_ : 0;
      next_lane_ = idx + 1;
      const std::size_t got = pop(*lanes[idx], idx, max - n);
      idle = got == 0 ? idle + 1 : 0;
      n += got;
    }
    return n;
  }

  /// Runs `handle` for the item at position `pos` of lane `lane`,
  /// stamping its drain-start / handler-done stages when the position is
  /// sampled (the rule the producer used for its produce/enqueue stages).
  template <typename Handle>
  void deliver(std::size_t lane, std::uint64_t pos, Handle&& handle) {
    if (span_every_ != 0 && pos % span_every_ == 0 && obs::enabled()) {
      const std::int64_t t0 = now_ns() - hdr_->epoch_mono_ns;
      handle();
      const std::uint64_t id = span_item_id(lane, pos);
      obs::note_item_stage(obs::kNoConsumer, 0, id, obs::ItemStage::kDrainStart, t0);
      obs::note_item_stage(obs::kNoConsumer, 0, id, obs::ItemStage::kHandlerDone,
                           now_ns() - hdr_->epoch_mono_ns);
    } else {
      handle();
    }
  }

  std::size_t drain_peer_telemetry(std::size_t idx);
  void maybe_heartbeat();

  ShmSegment segment_;
  ChannelHeader* hdr_ = nullptr;
  /// Local addresses of the lanes; only the array of the channel's kind
  /// is filled.
  std::array<ItemLane*, kMaxProducers> item_lanes_{};
  std::array<RecordLane*, kMaxProducers> record_lanes_{};
  std::size_t next_lane_ = 0;  ///< round-robin cursor of drain_lanes
  std::int64_t last_heartbeat_ns_ = 0;
  std::uint64_t span_every_ = 0;  ///< cached hdr_->span_sample_every
};

/// One producing endpoint.  Attaches to an existing channel (with the
/// shm-level retry/backoff), joins the registry and takes over its slot's
/// lane.  Single-threaded.
class Producer {
 public:
  Producer() = default;
  ~Producer();
  Producer(Producer&&) noexcept;
  Producer& operator=(Producer&&) noexcept;
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  static std::optional<Producer> attach(const std::string& shm_name,
                                        const ProducerConfig& config = {},
                                        std::string* error = nullptr);

  /// Publishes one value into this producer's lane.  Retries a full
  /// channel `full_retries` times with exponential backoff before giving
  /// up with kFull; checks consumer liveness on every retry and fails
  /// fast with kConsumerDead.  kFull and kConsumerDead are counted as
  /// drops (the overflow policy of this host is DropNewest — the caller
  /// keeps the value and may re-offer).  Requires an item channel.
  PushResult push(std::uint64_t value);

  /// Zero-copy varlen publish: reserves `payload.size()` bytes in this
  /// producer's record lane, copies the payload in (the only copy on the
  /// whole cross-process path) and commits, which publishes it.  Same
  /// retry policy and results as push().  Requires a record channel.
  PushResult push_record(std::span<const std::byte> payload);

  void heartbeat();

  /// Test-only: invoked between protocol steps (see CrashPoint).
  void set_crash_hook(std::function<void(CrashPoint)> hook) {
    crash_hook_ = std::move(hook);
  }

  ConservationReport report() const { return read_report(*hdr_); }
  TelemetrySnapshot telemetry() const { return merged_telemetry(*hdr_); }
  const ChannelHeader& header() const { return *hdr_; }
  std::size_t registry_index() const { return index_; }
  bool valid() const { return hdr_ != nullptr; }
  bool consumer_dead() const;

  /// Leaves the registry (clean detach).  Called by the destructor.
  void detach();

 private:
  /// Admission with the retry policy: succeeds once the channel's total
  /// fill is under capacity and `try_put()` (the lane's own full check)
  /// accepts.
  template <typename TryPut>
  PushResult admit(TryPut&& try_put);
  /// After the lane published the item at lane position `pos`: counts
  /// it, stamps sampled span stages, rings the doorbell.
  PushResult published(std::uint64_t pos, std::int64_t enter_ns);
  void crash_point(CrashPoint point) {
    if (crash_hook_) crash_hook_(point);
  }
  void maybe_heartbeat();
  void ring_doorbell();

  ShmSegment segment_;
  ChannelHeader* hdr_ = nullptr;
  ItemLane* item_lane_ = nullptr;      ///< this producer's lane (item channel)
  RecordLane* record_lane_ = nullptr;  ///< this producer's lane (record channel)
  std::size_t index_ = SIZE_MAX;
  ProducerConfig config_;
  std::int64_t last_heartbeat_ns_ = 0;
  std::uint64_t span_every_ = 0;  ///< cached hdr_->span_sample_every
  std::function<void(CrashPoint)> crash_hook_;
};

}  // namespace pcpc::ipc
