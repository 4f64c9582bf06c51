#include "pcpc/obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <optional>

#include "pcpc/common/assert.hpp"

namespace pcpc::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_span_every{0};
}  // namespace detail

namespace {

std::atomic<Session*> g_session{nullptr};

/// Bumped on install/uninstall so thread-local ring caches go stale
/// without dereferencing a dead session.
std::atomic<std::uint64_t> g_session_generation{0};

/// Process CPU time (snapshot thread); CLOCK_PROCESS_CPUTIME_ID.
std::int64_t process_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kWakeup: return "wakeup";
    case EventKind::kSlotBatch: return "slot_batch";
    case EventKind::kReservation: return "reservation";
    case EventKind::kOverflow: return "overflow";
    case EventKind::kWatchdog: return "watchdog";
    case EventKind::kFault: return "fault";
    case EventKind::kDrop: return "drop";
    case EventKind::kQueueResize: return "queue_resize";
    case EventKind::kItemStage: return "item_stage";
    case EventKind::kFleet: return "fleet";
  }
  return "?";
}

const char* fleet_action_name(FleetAction action) {
  switch (action) {
    case FleetAction::kMigrate: return "migrate";
    case FleetAction::kPark: return "park";
    case FleetAction::kUnpark: return "unpark";
  }
  return "?";
}

const char* item_stage_name(ItemStage stage) {
  switch (stage) {
    case ItemStage::kProduce: return "produce";
    case ItemStage::kEnqueue: return "enqueue";
    case ItemStage::kDrainStart: return "drain_start";
    case ItemStage::kHandlerDone: return "handler_done";
  }
  return "?";
}

const char* overflow_action_name(OverflowAction action) {
  switch (action) {
    case OverflowAction::kEmergencyBorrow: return "emergency_borrow";
    case OverflowAction::kForcedDrain: return "forced_drain";
  }
  return "?";
}

const char* drop_path_name(DropPath path) {
  switch (path) {
    case DropPath::kOldest: return "drop_oldest";
    case DropPath::kNewest: return "drop_newest";
    case DropPath::kOnStop: return "drop_on_stop";
  }
  return "?";
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBurst: return "burst";
    case FaultKind::kStall: return "stall";
    case FaultKind::kSlowHandler: return "slow_handler";
    case FaultKind::kDeadlineJitter: return "deadline_jitter";
    case FaultKind::kPoolPressure: return "pool_pressure";
    case FaultKind::kProcKill: return "proc_kill";
    case FaultKind::kLoadSwing: return "load_swing";
  }
  return "?";
}

Session::Session(SessionOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  PCPC_ASSERT_MSG(g_session.load() == nullptr, "an obs::Session is already installed");
  g_session_generation.fetch_add(1);
  g_session.store(this, std::memory_order_release);
  detail::g_span_every.store(options_.span_sample_every, std::memory_order_release);
  detail::g_enabled.store(true, std::memory_order_release);

  if (options_.snapshot_period_ms > 0) {
    snap_prev_cpu_ns_ = process_cpu_ns();
    snapshot_thread_ = std::thread([this] { snapshot_loop(); });
  }
}

Session::~Session() {
  // Disarm before tearing anything down so late note_*() calls fall
  // through the enabled() guard instead of racing the destructor.
  detail::g_enabled.store(false, std::memory_order_release);
  detail::g_span_every.store(0, std::memory_order_release);
  g_session.store(nullptr, std::memory_order_release);
  g_session_generation.fetch_add(1);
  if (snapshot_thread_.joinable()) {
    snapshot_stop_.store(true, std::memory_order_release);
    snapshot_thread_.join();
  }
}

Session* Session::current() { return g_session.load(std::memory_order_acquire); }

void Session::set_clock(std::function<std::int64_t()> now_ns) {
  std::scoped_lock lock(mutex_);
  clock_ = std::move(now_ns);
}

std::int64_t Session::now_ns() const {
  {
    std::scoped_lock lock(mutex_);
    if (clock_) return clock_();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRing& Session::add_ring() {
  std::scoped_lock lock(mutex_);
  rings_.push_back(std::make_unique<TraceRing>(options_.ring_capacity));
  return *rings_.back();
}

void Session::archive_now() {
  std::scoped_lock lock(mutex_);
  for (auto& ring : rings_) {
    ring->drain([this](const Event& e) {
      if (archive_.size() < options_.archive_capacity) {
        archive_.push_back(e);
      } else {
        ++archive_dropped_;
      }
    });
  }
}

std::vector<Event> Session::events() {
  archive_now();
  std::scoped_lock lock(mutex_);
  std::vector<Event> out = archive_;
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) { return a.ts_ns < b.ts_ns; });
  return out;
}

std::uint64_t Session::ring_dropped() const {
  std::scoped_lock lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) dropped += ring->dropped();
  return dropped;
}

std::uint64_t Session::archive_dropped() const {
  std::scoped_lock lock(mutex_);
  return archive_dropped_;
}

std::uint64_t Session::total_events_recorded() const {
  std::scoped_lock lock(mutex_);
  std::uint64_t pushed = 0;
  for (const auto& ring : rings_) pushed += ring->pushed();
  return pushed;
}

void Session::snapshot_loop() {
  const auto period = std::chrono::milliseconds(options_.snapshot_period_ms);
  auto next = std::chrono::steady_clock::now() + period;
  while (!snapshot_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_until(next);
    if (snapshot_stop_.load(std::memory_order_acquire)) break;
    print_snapshot(static_cast<double>(options_.snapshot_period_ms) / 1e3);
    archive_now();  // keep early events even when rings would wrap
    next += period;
  }
}

void Session::print_snapshot(double dt_s) {
  const WakeupLedger::Snapshot snapshot = ledger_.snapshot();
  const std::uint64_t wakeups = snapshot.wakeups().total();
  const WakeupLedger::Work work = snapshot.work();
  const std::uint64_t items = work.items;
  const std::uint64_t drops = work.drops;
  const std::int64_t cpu = process_cpu_ns();
  std::fprintf(stderr,
               "[pcpc obs] wakeups/s %8.1f | CPU ms/s %7.2f | items/s %9.1f | "
               "drops/s %7.1f | trace events %llu (dropped %llu)\n",
               static_cast<double>(wakeups - snap_prev_wakeups_) / dt_s,
               static_cast<double>(cpu - snap_prev_cpu_ns_) / 1e6 / dt_s,
               static_cast<double>(items - snap_prev_items_) / dt_s,
               static_cast<double>(drops - snap_prev_drops_) / dt_s,
               static_cast<unsigned long long>(total_events_recorded()),
               static_cast<unsigned long long>(ring_dropped()));
  snap_prev_wakeups_ = wakeups;
  snap_prev_items_ = items;
  snap_prev_drops_ = drops;
  snap_prev_cpu_ns_ = cpu;
}

namespace detail {

/// Everything one note_*() call touches, resolved once per thread per
/// session: the thread's ledger shard (every count) and its trace ring.
/// One generation check replaces the session-pointer acquire plus the
/// TLS lookups the naive path pays per event — at tens of thousands of
/// wakeups per simulated second that difference is the overhead budget.
struct HotPath {
  std::uint64_t generation = 0;
  Session* session = nullptr;
  TraceRing* ring = nullptr;
  std::optional<WakeupLedger::Writer> ledger;

  /// Slow path of hot_path(): (re)binds the calling thread's handles to
  /// the installed session, or clears them when there is none.
  [[gnu::noinline]] static HotPath* resolve(std::uint64_t generation);
};

namespace {

using Counter = WakeupLedger::Counter;

thread_local HotPath t_hot_path;

/// Returns the calling thread's resolved hot path, or nullptr when no
/// session is installed.  The generation is read (acquire) *before* any
/// cached pointer is trusted, so a torn-down session is never touched.
/// Inline, so a note pays one compare here and no call.
inline HotPath* hot_path() {
  const std::uint64_t generation = g_session_generation.load(std::memory_order_acquire);
  HotPath& tls = t_hot_path;
  if (tls.session != nullptr && tls.generation == generation) [[likely]] return &tls;
  return HotPath::resolve(generation);
}

/// The records behind note_slot_batch() and note_reservation(), on a
/// resolved hot path, so that the fused note_invocation() resolves it
/// once.
void record_slot_batch(HotPath* h, std::uint16_t core, std::uint32_t consumer,
                       std::int64_t slot, std::uint64_t batch, std::int64_t ts_ns,
                       std::int64_t dur_ns) {
  h->ledger->record_batch(core, consumer, batch, dur_ns);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    e.arg0 = slot;
    e.arg1 = static_cast<std::int64_t>(batch);
    e.consumer = consumer;
    e.core = core;
    e.kind = EventKind::kSlotBatch;
  });
}

void record_reservation(HotPath* h, std::uint16_t core, std::uint32_t consumer,
                        std::int64_t slot, bool latched, std::int64_t ts_ns) {
  h->ledger->add(Counter::kReservations);
  if (latched) h->ledger->add(Counter::kLatchedReservations);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.arg0 = slot;
    e.arg1 = latched ? 1 : 0;
    e.consumer = consumer;
    e.core = core;
    e.kind = EventKind::kReservation;
  });
}

}  // namespace

HotPath* HotPath::resolve(std::uint64_t generation) {
  HotPath& tls = t_hot_path;
  Session* s = Session::current();
  if (s == nullptr) {
    tls.session = nullptr;
    return nullptr;
  }
  tls.ring = &s->add_ring();
  tls.ledger = s->ledger().writer();
  tls.session = s;
  tls.generation = generation;
  return &tls;
}

void note_wakeup_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                      bool paid, bool scheduled, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->record(core, consumer, paid);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.arg0 = slot;
    e.consumer = consumer;
    e.core = core;
    e.kind = EventKind::kWakeup;
    e.flags = static_cast<std::uint8_t>((paid ? kFlagPaid : 0) |
                                        (scheduled ? kFlagScheduled : 0));
  });
}

void note_slot_batch_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                          std::uint64_t batch, std::int64_t ts_ns, std::int64_t dur_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  record_slot_batch(h, core, consumer, slot, batch, ts_ns, dur_ns);
}

void note_reservation_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                           bool latched, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  record_reservation(h, core, consumer, slot, latched, ts_ns);
}

void note_invocation_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                          std::uint64_t batch, std::int64_t ts_ns, std::int64_t dur_ns,
                          std::int64_t next_slot, bool latched) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  record_reservation(h, core, consumer, next_slot, latched, ts_ns);
  record_slot_batch(h, core, consumer, slot, batch, ts_ns, dur_ns);
}

void note_overflow_impl(std::uint16_t core, std::uint32_t consumer, OverflowAction action,
                        std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(action == OverflowAction::kEmergencyBorrow ? Counter::kEmergencyBorrows
                                                           : Counter::kForcedDrains);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.arg0 = static_cast<std::int64_t>(action);
    e.consumer = consumer;
    e.core = core;
    e.kind = EventKind::kOverflow;
  });
}

void note_watchdog_impl(std::uint16_t core, std::int64_t overrun_ns, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kWatchdogEscalations);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.arg0 = overrun_ns;
    e.core = core;
    e.kind = EventKind::kWatchdog;
  });
}

void note_fault_impl(FaultKind kind, std::int64_t magnitude) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kFaultsInjected);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = h->session->now_ns();
    e.arg0 = static_cast<std::int64_t>(kind);
    e.arg1 = magnitude;
    e.kind = EventKind::kFault;
  });
}

void note_drop_impl(std::uint32_t consumer, DropPath path, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->record_drop(consumer);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.arg0 = static_cast<std::int64_t>(path);
    e.consumer = consumer;
    e.kind = EventKind::kDrop;
  });
}

void note_queue_resize_impl(std::uint32_t consumer, std::size_t old_slots,
                            std::size_t new_slots) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kQueueResizes);
  h->ring->push_with([&](Event& e) {
    e.ts_ns = h->session->now_ns();
    e.arg0 = static_cast<std::int64_t>(old_slots);
    e.arg1 = static_cast<std::int64_t>(new_slots);
    e.consumer = consumer;
    e.kind = EventKind::kQueueResize;
  });
}

void note_fleet_impl(FleetAction action, std::uint32_t pair, std::uint16_t from_core,
                     std::uint16_t to_core, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  switch (action) {
    case FleetAction::kMigrate: h->ledger->add(Counter::kFleetMigrations); break;
    case FleetAction::kPark: h->ledger->add(Counter::kFleetParks); break;
    case FleetAction::kUnpark: h->ledger->add(Counter::kFleetUnparks); break;
  }
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.arg0 = static_cast<std::int64_t>(action);
    e.arg1 = static_cast<std::int64_t>(to_core);
    e.consumer = pair;
    e.core = from_core;
    e.kind = EventKind::kFleet;
  });
}

void count_sim_events_impl(std::uint64_t n) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kSimEvents, n);
}

void note_item_stage_impl(std::uint32_t consumer, std::uint16_t core,
                          std::uint64_t item_id, ItemStage stage, std::int64_t ts_ns) {
  const ItemStamp stamp{item_id, ts_ns, stage};
  note_item_stages_impl(consumer, core, std::span<const ItemStamp>(&stamp, 1));
}

void note_item_stages_impl(std::uint32_t consumer, std::uint16_t core,
                           std::span<const ItemStamp> stamps) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kSpanStages, stamps.size());
  for (const ItemStamp& stamp : stamps) {
    h->ring->push_with([&](Event& e) {
      e.ts_ns = stamp.ts_ns;
      e.arg0 = static_cast<std::int64_t>(stamp.item_id);
      e.arg1 = static_cast<std::int64_t>(stamp.stage);
      e.consumer = consumer;
      e.core = core;
      e.kind = EventKind::kItemStage;
    });
  }
}

}  // namespace detail

void Session::emit(const Event& event) {
  // A session is the installed one for its whole life, so the calling
  // thread's hot path binds to this session.
  if (detail::HotPath* h = detail::hot_path()) h->ring->push(event);
}

}  // namespace pcpc::obs
