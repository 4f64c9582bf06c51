#include "pcpc/ipc/channel.hpp"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <thread>

#include "pcpc/common/assert.hpp"
#include "pcpc/common/logging.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::ipc {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool pid_alive(std::int32_t pid) {
  if (pid <= 0) return false;
  if (::kill(pid, 0) != 0) return errno != ESRCH;
#if defined(__linux__)
  // kill(pid, 0) succeeds on zombies; a SIGKILLed child not yet reaped by
  // its parent must still count as dead.
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", pid);
  std::FILE* f = std::fopen(path, "re");
  if (f == nullptr) return false;
  // Field 3 (state) follows the parenthesized comm, which may itself
  // contain spaces — scan past the LAST ')'.
  char buf[512];
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[got] = '\0';
  const char* close_paren = nullptr;
  for (const char* p = buf; *p != '\0'; ++p) {
    if (*p == ')') close_paren = p;
  }
  if (close_paren == nullptr || close_paren[1] == '\0') return false;
  return close_paren[2] != 'Z';
#else
  return true;
#endif
}

const char* push_result_name(PushResult r) {
  switch (r) {
    case PushResult::kOk: return "ok";
    case PushResult::kFull: return "full";
    case PushResult::kConsumerDead: return "consumer_dead";
  }
  return "?";
}

namespace {

/// Items (records) published and not yet drained, over every lane in use:
/// the fill wake_threshold applies to.
std::uint64_t channel_fill(const ChannelHeader& hdr) {
  const std::size_t lanes = hdr.lanes_in_use.load(std::memory_order_acquire);
  std::uint64_t fill = 0;
  for (std::size_t idx = 0; idx < lanes; ++idx) {
    if (const ItemLane* lane = item_lane_at(hdr, idx)) {
      fill += lane->size();
    } else {
      fill += record_lane_at(hdr, idx)->size_records();
    }
  }
  return fill;
}

/// Full-lane retry backoff: doubles from the first to the cap.
constexpr std::int64_t kInitialBackoffNs = 2'000;
constexpr std::int64_t kMaxBackoffNs = 1'000'000;

ChannelHeader* header_of(const ShmSegment& seg) {
  return reinterpret_cast<ChannelHeader*>(seg.payload());
}

/// Cell `which` summed over the registry slots in use.  A slot's cells
/// hold the counts of every owner it had, so the sum is exact at every
/// point, across SIGKILL and slot reuse.
std::uint64_t sum_cell(const ChannelHeader& hdr, TelCounter which) {
  const std::size_t lanes = hdr.lanes_in_use.load(std::memory_order_acquire);
  std::uint64_t sum = 0;
  for (std::size_t idx = 0; idx < lanes; ++idx) {
    sum += hdr.producer_tel[idx].counters[which].load(std::memory_order_acquire);
  }
  return sum;
}

void join_peer(PeerSlot& peer) {
  peer.pid.store(static_cast<std::int32_t>(::getpid()), std::memory_order_relaxed);
  peer.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  peer.state.store(kPeerActive, std::memory_order_release);
}

/// Dead: not Active in the registry, or Active with a stale heartbeat
/// and a gone pid.  A stale-but-alive peer (SIGSTOP) is NOT dead.
bool peer_dead(const PeerSlot& peer, std::int64_t timeout_ns) {
  const std::uint32_t state = peer.state.load(std::memory_order_acquire);
  if (state != kPeerActive) return true;
  const std::int64_t hb = peer.heartbeat_ns.load(std::memory_order_acquire);
  if (now_ns() - hb <= timeout_ns) return false;
  return !pid_alive(peer.pid.load(std::memory_order_acquire));
}

/// Best-effort trace event into a peer's ring; a full ring counts a drop.
void record_event(PeerTelemetry& tel, const obs::Event& e) {
  if (!tel.ring.try_push(e)) owner_add(tel.ring_dropped);
}

}  // namespace

ConservationReport read_report(const ChannelHeader& hdr) {
  ConservationReport r;
  // Per lane the consumed cursor is read before the published one, so
  // consumed never passes admitted.
  const std::size_t lanes = hdr.lanes_in_use.load(std::memory_order_acquire);
  for (std::size_t idx = 0; idx < lanes; ++idx) {
    if (const ItemLane* lane = item_lane_at(hdr, idx)) {
      r.consumed += lane->head_index();
      r.admitted += lane->tail_index();
      continue;
    }
    const RecordLane& lane = *record_lane_at(hdr, idx);
    r.consumed += lane.released_records();
    r.admitted += lane.published_records();
    const queue::VarCounters c = lane.counters();
    r.var_admitted_bytes += c.tail_bytes;
    r.var_consumed_bytes += c.consumed_footprint_bytes;
    r.var_padding_bytes += c.released_padding_bytes;
    r.var_residue_bytes += c.tail_bytes - c.head_bytes;
    r.var_delivered_bytes += c.consumed_payload_bytes;
  }
  r.residue = r.admitted - r.consumed;
  r.acked_pushes = sum_cell(hdr, kTelPushed);
  r.dropped = sum_cell(hdr, kTelDropped);
  r.futex_wakes = sum_cell(hdr, kTelPaidWakes);
  r.doorbells_free = sum_cell(hdr, kTelDoorbellFree);
  r.span_stages = sum_cell(hdr, kTelSpanStages);
  r.peers_reaped = hdr.peers_reaped.load(std::memory_order_acquire);
  return r;
}

// ---------------------------------------------------------------------------
// Consumer
// ---------------------------------------------------------------------------

Consumer::~Consumer() {
  if (hdr_ != nullptr) {
    hdr_->consumer_peer.state.store(kPeerDead, std::memory_order_release);
    segment_.unlink();
  }
}

Consumer::Consumer(Consumer&& other) noexcept
    : segment_(std::move(other.segment_)), hdr_(other.hdr_),
      item_lanes_(other.item_lanes_), record_lanes_(other.record_lanes_),
      next_lane_(other.next_lane_), free_wakes_(other.free_wakes_),
      last_heartbeat_ns_(other.last_heartbeat_ns_),
      span_every_(other.span_every_) {
  other.hdr_ = nullptr;
  other.item_lanes_.fill(nullptr);
  other.record_lanes_.fill(nullptr);
}

Consumer& Consumer::operator=(Consumer&& other) noexcept {
  if (this != &other) {
    this->~Consumer();
    new (this) Consumer(std::move(other));
  }
  return *this;
}

std::optional<Consumer> Consumer::create(const std::string& shm_name,
                                         const ChannelConfig& config,
                                         std::string* error) {
  PCPC_ASSERT_MSG(config.capacity > 0, "ipc channel capacity must be positive");
  const bool records = config.payload_ring_bytes > 0;
  const std::size_t stride = records ? lane_stride<RecordLane>() : lane_stride<ItemLane>();
  const std::size_t storage =
      records ? record_lane_storage_bytes(config.payload_ring_bytes, config.payload_max_record)
              : item_lane_storage_bytes(config.capacity);
  ShmSegment seg =
      ShmSegment::create(shm_name, segment_payload_bytes(stride, storage), error);
  if (!seg.valid()) return std::nullopt;

  // Only the control block is written: the header is default-initialised
  // (every member has an initialiser, and () would zero it once more),
  // then the ring objects are built in place over their regions' slots,
  // which the freshly sized segment already holds as zeros and no ring
  // reads before writing.
  auto* hdr = new (seg.payload()) ChannelHeader;
  hdr->abi_guard = abi_fingerprint();
  hdr->capacity = config.capacity;
  hdr->heartbeat_period_ns = config.heartbeat_period_ns;
  hdr->heartbeat_timeout_ns = config.heartbeat_timeout_ns > 0
                                  ? config.heartbeat_timeout_ns
                                  : 8 * config.heartbeat_period_ns;
  hdr->wake_threshold = config.wake_threshold > 0
                            ? config.wake_threshold
                            : std::max<std::uint64_t>(1, config.capacity / 2);
  hdr->epoch_mono_ns = now_ns();
  hdr->span_sample_every = config.span_sample_every;
  hdr->lane_stride = stride;
  hdr->lane_storage_bytes = storage;

  // One trace ring and one lane per registry slot, constructed in place
  // so their cursors are shm state every process reaches by offset.
  Consumer c;
  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    new (&hdr->producer_tel[idx].ring)
        TelemetryRing(kTelemetryRingCap, kTelemetryRingCap, telemetry_storage(*hdr, idx));
  }
  if (records) {
    hdr->payload_ring_bytes = config.payload_ring_bytes;
    hdr->payload_max_record = config.payload_max_record;
    for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
      c.record_lanes_[idx] = new (lane_region(*hdr, idx))
          RecordLane(config.payload_ring_bytes, /*max_bytes=*/0, config.payload_max_record,
                     lane_storage(*hdr, idx));
    }
  } else {
    for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
      c.item_lanes_[idx] = new (lane_region(*hdr, idx))
          ItemLane(config.capacity, config.capacity, lane_storage(*hdr, idx));
    }
  }
  join_peer(hdr->consumer_peer);
  seg.mark_ready();

  c.segment_ = std::move(seg);
  c.hdr_ = hdr;
  c.last_heartbeat_ns_ = hdr->consumer_peer.heartbeat_ns.load(std::memory_order_relaxed);
  c.span_every_ = hdr->span_sample_every;
  return c;
}

void Consumer::heartbeat() {
  const std::int64_t now = now_ns();
  hdr_->consumer_peer.heartbeat_ns.store(now, std::memory_order_release);
  last_heartbeat_ns_ = now;
}

void Consumer::maybe_heartbeat() {
  if (now_ns() - last_heartbeat_ns_ >= hdr_->heartbeat_period_ns) heartbeat();
}

bool Consumer::has_visible_work() const { return channel_fill(*hdr_) != 0; }

std::vector<SlotRow> Consumer::slots() const {
  std::vector<SlotRow> rows(hdr_->lanes_in_use.load(std::memory_order_acquire));
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const PeerTelemetry& tel = hdr_->producer_tel[idx];
    SlotRow& row = rows[idx];
    row.active = hdr_->producers[idx].state.load(std::memory_order_acquire) == kPeerActive;
    for (std::size_t c = 0; c < kTelCounterCount; ++c) {
      row.counters[c] = tel.counters[c].load(std::memory_order_acquire);
    }
    row.ring_pushed = tel.ring.tail_index();
    row.ring_dropped = tel.ring_dropped.load(std::memory_order_acquire);
    row.free_wakes = free_wakes_[idx];
  }
  return rows;
}

std::size_t Consumer::drain_peer_telemetry(std::size_t idx) {
  obs::Session* session = obs::Session::current();
  if (session == nullptr) return 0;
  TelemetryRing& ring = hdr_->producer_tel[idx].ring;
  obs::Event batch[64];
  std::size_t n = 0;
  while (const std::size_t got = ring.pop_bulk(batch)) {
    for (std::size_t i = 0; i < got; ++i) {
      batch[i].origin = static_cast<std::uint16_t>(idx + 1);
      session->emit(batch[i]);
    }
    n += got;
  }
  return n;
}

std::size_t Consumer::drain_telemetry() {
  if (obs::Session::current() == nullptr) return 0;
  std::size_t n = 0;
  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    n += drain_peer_telemetry(idx);
  }
  return n;
}

std::size_t Consumer::reap() {
  const std::int64_t timeout = hdr_->heartbeat_timeout_ns;
  std::size_t reaped = 0;
  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    PeerSlot& peer = hdr_->producers[idx];
    if (peer.state.load(std::memory_order_acquire) != kPeerActive) continue;
    const std::int64_t hb = peer.heartbeat_ns.load(std::memory_order_acquire);
    const std::int32_t pid = peer.pid.load(std::memory_order_acquire);
    if (now_ns() - hb <= timeout || pid_alive(pid)) continue;

    // Provably dead: stale heartbeat AND the pid is gone.  Its lane keeps
    // what it published (drained like any other lane) and never showed
    // what it had not, and its counter cells stay for the slot's next
    // owner to resume.  Salvage the trace events it published before the
    // slot's ring inherits a new owner.
    peer.state.store(kPeerDead, std::memory_order_release);
    PCPC_WARN << "ipc: reaped dead producer idx=" << idx << " pid=" << pid;
    drain_peer_telemetry(idx);
    peer.pid.store(0, std::memory_order_relaxed);
    peer.state.store(kPeerFree, std::memory_order_release);
    hdr_->peers_reaped.fetch_add(1, std::memory_order_relaxed);
    ++reaped;
  }
  return reaped;
}

WakeKind Consumer::wait(std::int64_t timeout_ns) {
  maybe_heartbeat();
  // The idle edge is the natural merge point: pull producer-side trace
  // events out of the shm rings before parking (cheap when rings are
  // empty — one head/tail load per registry slot).
  drain_telemetry();
  if (has_visible_work()) return WakeKind::kPoll;

  const std::uint32_t ticket = hdr_->doorbell.load(std::memory_order_acquire);
  hdr_->consumer_state.store(kConsumerSleeping, std::memory_order_seq_cst);
  // Recheck after announcing sleep: a producer that published before the
  // store above may not have rung (below threshold), so we must not park
  // past visible work.
  const bool slept = !has_visible_work();
  const WaitResult wr =
      slept ? futex_wait(&hdr_->doorbell, ticket, timeout_ns) : WaitResult::kWoken;
  // Consume the wake token (if any): every producer-side futex_wakes
  // increment created exactly one kConsumerWoken, and this exchange is
  // its unique consumption point — paid wakeups tally exactly.
  const std::uint32_t prev =
      hdr_->consumer_state.exchange(kConsumerAwake, std::memory_order_acq_rel);
  const bool paid = prev == kConsumerWoken;
  // A recheck that found work never slept: unless a producer paid for a
  // wake meanwhile, that is a poll, and no wake is noted or charged.
  if (!slept && !paid) return WakeKind::kPoll;
  // Timestamp in the segment-epoch clock domain, like every other event
  // any peer of this channel records — merged traces must not mix
  // absolute CLOCK_MONOTONIC with per-process epochs.
  obs::note_wakeup(/*core=*/0, /*consumer=*/0, obs::kNoSlot, paid,
                   /*scheduled=*/!paid, now_ns() - hdr_->epoch_mono_ns);
  if (paid) return WakeKind::kDoorbell;
  const std::size_t in_use = hdr_->lanes_in_use.load(std::memory_order_acquire);
  ++free_wakes_[next_lane_ < in_use ? next_lane_ : 0];
  return wr == WaitResult::kTimeout ? WakeKind::kTimeout : WakeKind::kPoll;
}

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

Producer::~Producer() { detach(); }

Producer::Producer(Producer&& other) noexcept
    : segment_(std::move(other.segment_)), hdr_(other.hdr_),
      item_lane_(other.item_lane_), record_lane_(other.record_lane_),
      index_(other.index_), config_(other.config_),
      last_heartbeat_ns_(other.last_heartbeat_ns_), last_probe_ns_(other.last_probe_ns_),
      consumer_dead_(other.consumer_dead_), span_every_(other.span_every_),
      crash_hook_(std::move(other.crash_hook_)) {
  other.hdr_ = nullptr;
  other.item_lane_ = nullptr;
  other.record_lane_ = nullptr;
  other.index_ = SIZE_MAX;
}

Producer& Producer::operator=(Producer&& other) noexcept {
  if (this != &other) {
    this->~Producer();  // detaches
    new (this) Producer(std::move(other));
  }
  return *this;
}

void Producer::detach() {
  if (hdr_ == nullptr || index_ == SIZE_MAX) {
    hdr_ = nullptr;
    return;
  }
  PeerSlot& peer = hdr_->producers[index_];
  peer.pid.store(0, std::memory_order_relaxed);
  peer.state.store(kPeerFree, std::memory_order_release);
  hdr_ = nullptr;
  item_lane_ = nullptr;
  record_lane_ = nullptr;
  index_ = SIZE_MAX;
}

std::optional<Producer> Producer::attach(const std::string& shm_name,
                                         const ProducerConfig& config,
                                         std::string* error) {
  ShmSegment seg = ShmSegment::attach(shm_name, config.attach, error);
  if (!seg.valid()) return std::nullopt;
  ChannelHeader* hdr = header_of(seg);
  if (hdr->version != kLayoutVersion || hdr->abi_guard != abi_fingerprint()) {
    if (error != nullptr) {
      *error = "attach(" + shm_name + "): layout version/ABI mismatch";
    }
    return std::nullopt;
  }
  if (peer_dead(hdr->consumer_peer, hdr->heartbeat_timeout_ns)) {
    if (error != nullptr) {
      *error = "attach(" + shm_name + "): consumer is dead";
    }
    return std::nullopt;
  }
  std::size_t index = SIZE_MAX;
  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    std::uint32_t expected = kPeerFree;
    if (hdr->producers[idx].state.compare_exchange_strong(expected, kPeerJoining,
                                                          std::memory_order_acq_rel)) {
      index = idx;
      break;
    }
  }
  if (index == SIZE_MAX) {
    if (error != nullptr) {
      *error = "attach(" + shm_name + "): producer registry full";
    }
    return std::nullopt;
  }

  // Take over the slot's lane and trace ring at their published cursors
  // (a predecessor may have died mid-write; what it never published is
  // overwritten), and its counter cells where the last owner left them:
  // an RMW reads the last value in a cell's modification order, so this
  // owner's relaxed bumps continue from the last value any predecessor
  // wrote, even one that was SIGKILLed.  Then widen the consumer's scan
  // to cover this lane.
  PeerTelemetry& tel = hdr->producer_tel[index];
  for (std::atomic<std::uint64_t>& cell : tel.counters) {
    cell.fetch_add(0, std::memory_order_relaxed);
  }
  tel.ring_dropped.fetch_add(0, std::memory_order_relaxed);
  tel.ring.producer_attach();
  Producer p;
  p.item_lane_ = item_lane_at(*hdr, index);
  p.record_lane_ = record_lane_at(*hdr, index);
  if (p.item_lane_ != nullptr) {
    p.item_lane_->producer_attach();
    // Publish explicitly at commit (flush), never inside try_push.
    p.item_lane_->set_publish_batch(SIZE_MAX);
  } else {
    p.record_lane_->producer_attach();
  }
  std::uint32_t in_use = hdr->lanes_in_use.load(std::memory_order_acquire);
  while (in_use <= index && !hdr->lanes_in_use.compare_exchange_weak(
                                in_use, static_cast<std::uint32_t>(index + 1),
                                std::memory_order_acq_rel)) {
  }
  join_peer(hdr->producers[index]);

  p.hdr_ = hdr;
  p.segment_ = std::move(seg);
  p.index_ = index;
  p.config_ = config;
  // The heartbeat join_peer() published, so the first refresh is due one
  // period after what the registry shows.
  p.last_heartbeat_ns_ = hdr->producers[index].heartbeat_ns.load(std::memory_order_relaxed);
  p.span_every_ = hdr->span_sample_every;
  return p;
}

void Producer::heartbeat() { beat(now_ns()); }

void Producer::beat(std::int64_t now) {
  hdr_->producers[index_].heartbeat_ns.store(now, std::memory_order_release);
  last_heartbeat_ns_ = now;
}

bool Producer::consumer_gone(std::int64_t now) {
  if (consumer_dead_) return true;
  const PeerSlot& peer = hdr_->consumer_peer;
  if (peer.state.load(std::memory_order_acquire) != kPeerActive) return consumer_dead_ = true;
  // A fresh heartbeat proves the consumer alive.  A stale one is what a
  // consumer asleep past the timeout also shows, so the pid is probed,
  // but at most once per heartbeat period.
  if (now - peer.heartbeat_ns.load(std::memory_order_acquire) <= hdr_->heartbeat_timeout_ns ||
      now - last_probe_ns_ < hdr_->heartbeat_period_ns) {
    return false;
  }
  last_probe_ns_ = now;
  consumer_dead_ = !pid_alive(peer.pid.load(std::memory_order_acquire));
  return consumer_dead_;
}

void Producer::ring_doorbell() {
  if (channel_fill(*hdr_) < hdr_->wake_threshold) return;
  hdr_->doorbell.fetch_add(1, std::memory_order_release);
  std::uint32_t expected = kConsumerSleeping;
  if (hdr_->consumer_state.compare_exchange_strong(expected, kConsumerWoken,
                                                   std::memory_order_acq_rel)) {
    // We won the right to wake: count the paid wake at the exact point it
    // costs a syscall (the identity the obs ledger is checked against).
    telemetry_bump(slot_tel(), kTelPaidWakes);
    futex_wake(&hdr_->doorbell, 1);
  } else {
    telemetry_bump(slot_tel(), kTelDoorbellFree);
  }
}

template <typename TryPut>
PushResult Producer::admit(std::int64_t now, TryPut&& try_put) {
  // Admission is the lane's own full check against its cached head; a
  // rejected push leaves no trace in the lane.  The clock is read again
  // only after a backoff sleep.
  std::int64_t backoff_ns = kInitialBackoffNs;
  for (int attempt = 0;; ++attempt) {
    if (now - last_heartbeat_ns_ >= hdr_->heartbeat_period_ns) beat(now);
    if (consumer_gone(now)) {
      telemetry_bump(slot_tel(), kTelDropped);
      return PushResult::kConsumerDead;
    }
    if (try_put()) return PushResult::kOk;
    if (attempt >= config_.full_retries) {
      telemetry_bump(slot_tel(), kTelDropped);
      return PushResult::kFull;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
    backoff_ns = std::min(backoff_ns * 2, kMaxBackoffNs);
    now = now_ns();
  }
}

PushResult Producer::published(std::uint64_t pos, std::int64_t enter_ns) {
  PeerTelemetry& tel = slot_tel();
  telemetry_bump(tel, kTelPushed);
  if (span_every_ != 0 && pos % span_every_ == 0) {
    // Sampled item: publish produce/enqueue stages into this peer's shm
    // trace ring, in the segment-epoch clock domain.  The lane position
    // is the item id — the consumer derives the same id for its stages
    // without any payload tagging.
    obs::Event e;
    e.ts_ns = enter_ns - hdr_->epoch_mono_ns;
    e.arg0 = static_cast<std::int64_t>(span_item_id(index_, pos));
    e.arg1 = static_cast<std::int64_t>(obs::ItemStage::kProduce);
    e.consumer = static_cast<std::uint32_t>(index_);  ///< the pair id
    e.kind = obs::EventKind::kItemStage;
    record_event(tel, e);
    e.ts_ns = now_ns() - hdr_->epoch_mono_ns;
    e.arg1 = static_cast<std::int64_t>(obs::ItemStage::kEnqueue);
    record_event(tel, e);
    telemetry_bump(tel, kTelSpanStages, 2);
  }
  ring_doorbell();
  return PushResult::kOk;
}

PushResult Producer::push(std::uint64_t value) {
  PCPC_ASSERT_MSG(item_lane_ != nullptr, "push() on a record channel");
  // One clock read serves the heartbeat, the consumer's liveness and the
  // produce stage of a sampled span; the lane position is read only when
  // spans are armed.
  const std::int64_t enter_ns = now_ns();
  const std::uint64_t pos = span_every_ != 0 ? item_lane_->tail_index() : 0;
  const PushResult r = admit(enter_ns, [&] { return item_lane_->try_push(value); });
  if (r != PushResult::kOk) return r;
  crash_point(CrashPoint::kBeforePublish);
  item_lane_->flush();
  crash_point(CrashPoint::kAfterPublish);
  return published(pos, enter_ns);
}

PushResult Producer::push_record(std::span<const std::byte> payload) {
  PCPC_ASSERT_MSG(record_lane_ != nullptr, "push_record() on an item channel");
  PCPC_ASSERT_MSG(payload.size() <= hdr_->payload_max_record,
                  "record exceeds the channel's max payload");
  const std::int64_t enter_ns = now_ns();
  const std::uint64_t pos = span_every_ != 0 ? record_lane_->published_records() : 0;
  queue::VarReservation res;
  const PushResult r = admit(enter_ns, [&] {
    return record_lane_->try_reserve(static_cast<std::uint32_t>(payload.size()), res);
  });
  if (r != PushResult::kOk) return r;
  std::memcpy(res.data, payload.data(), payload.size());
  crash_point(CrashPoint::kBeforePublish);
  record_lane_->commit(res);
  crash_point(CrashPoint::kAfterPublish);
  return published(pos, enter_ns);
}

}  // namespace pcpc::ipc
