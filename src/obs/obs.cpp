#include "pcpc/obs/obs.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <ctime>
#include <new>
#include <optional>

#include "pcpc/common/assert.hpp"

namespace pcpc::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_span_every{0};

namespace {
constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// The length map_ring() maps for `bytes`: whole huge pages from 1 MiB
/// up, whole pages below.
std::size_t ring_mapping(std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t unit = bytes >= kHugePage / 2 ? kHugePage : page;
  return (bytes + unit - 1) / unit * unit;
}
}  // namespace

void* map_ring(std::size_t bytes) {
  const std::size_t len = ring_mapping(bytes);
  const bool huge = len % kHugePage == 0;
  // A huge mapping is made one huge page longer, then trimmed to start
  // on a huge-page boundary.
  const std::size_t slack = huge ? kHugePage : 0;
  void* raw = ::mmap(nullptr, len + slack, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* const base = static_cast<char*>(raw);
  char* p = base;
  if (huge) {
    p = reinterpret_cast<char*>((reinterpret_cast<std::uintptr_t>(base) + kHugePage - 1) &
                                ~(kHugePage - 1));
    if (p != base) ::munmap(base, static_cast<std::size_t>(p - base));
    ::munmap(p + len, static_cast<std::size_t>(base + slack - p));
    (void)::madvise(p, len, MADV_HUGEPAGE);
  }
  // Kernels before 5.14 refuse the populate; their pages fault in as the
  // ring fills.
  (void)::madvise(p, len, MADV_POPULATE_WRITE);
  return p;
}

void unmap_ring(void* p, std::size_t bytes) { ::munmap(p, ring_mapping(bytes)); }
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

/// Writes one event into the thread's ring, setting every field.  Always
/// inlined, so the fields go from registers straight into the slot.
[[gnu::always_inline]] inline void push_event(HotPath* h, EventKind kind, std::uint16_t core,
                                              std::uint32_t consumer, std::int64_t ts_ns,
                                              std::int64_t arg0, std::int64_t arg1 = 0,
                                              std::int64_t dur_ns = 0, std::uint8_t flags = 0) {
  h->ring->push_with([&](Event& e) {
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.consumer = consumer;
    e.core = core;
    e.kind = kind;
    e.flags = flags;
    e.origin = kOriginLocal;
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

/// Event::flags of a wakeup.
std::uint8_t wake_flags(bool paid, bool scheduled) {
  return static_cast<std::uint8_t>((paid ? kFlagPaid : 0) | (scheduled ? kFlagScheduled : 0));
}

void note_wakeup_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                      bool paid, bool scheduled, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->record(core, consumer, paid);
  push_event(h, EventKind::kWakeup, core, consumer, ts_ns, slot, 0, 0,
             wake_flags(paid, scheduled));
}

void note_slot_batch_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                          std::uint64_t batch, std::int64_t ts_ns, std::int64_t dur_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->record_batch(core, consumer, batch, dur_ns);
  push_event(h, EventKind::kSlotBatch, core, consumer, ts_ns, slot,
             static_cast<std::int64_t>(batch), dur_ns);
}

void note_reservation_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                           bool latched, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->record_reservation(core, consumer, latched);
  push_event(h, EventKind::kReservation, core, consumer, ts_ns, slot, latched ? 1 : 0);
}

void note_invocation_impl(std::uint16_t core, std::uint32_t consumer, const Invocation& in) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->record_invocation(core, consumer, in.paid, in.batch, in.dur_ns, in.latched);
  if (h->ring->full()) return h->ring->drop(3);
  push_event(h, EventKind::kWakeup, core, consumer, in.ts_ns, in.wake_slot, 0, 0,
             wake_flags(in.paid, in.scheduled));
  push_event(h, EventKind::kReservation, core, consumer, in.ts_ns, in.next_slot,
             in.latched ? 1 : 0);
  push_event(h, EventKind::kSlotBatch, core, consumer, in.ts_ns, in.slot,
             static_cast<std::int64_t>(in.batch), in.dur_ns);
}

void note_overflow_impl(std::uint16_t core, std::uint32_t consumer, OverflowAction action,
                        std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(action == OverflowAction::kEmergencyBorrow ? Counter::kEmergencyBorrows
                                                           : Counter::kForcedDrains);
  push_event(h, EventKind::kOverflow, core, consumer, ts_ns, static_cast<std::int64_t>(action));
}

void note_watchdog_impl(std::uint16_t core, std::int64_t overrun_ns, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kWatchdogEscalations);
  push_event(h, EventKind::kWatchdog, core, kNoConsumer, ts_ns, overrun_ns);
}

void note_fault_impl(FaultKind kind, std::int64_t magnitude) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kFaultsInjected);
  push_event(h, EventKind::kFault, 0, kNoConsumer, h->session->now_ns(),
             static_cast<std::int64_t>(kind), magnitude);
}

void note_drop_impl(std::uint32_t consumer, DropPath path, std::int64_t ts_ns) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->record_drop(consumer);
  push_event(h, EventKind::kDrop, 0, consumer, ts_ns, static_cast<std::int64_t>(path));
}

void note_queue_resize_impl(std::uint32_t consumer, std::size_t old_slots,
                            std::size_t new_slots) {
  HotPath* h = hot_path();
  if (h == nullptr) return;
  h->ledger->add(Counter::kQueueResizes);
  push_event(h, EventKind::kQueueResize, 0, consumer, h->session->now_ns(),
             static_cast<std::int64_t>(old_slots), static_cast<std::int64_t>(new_slots));
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
  push_event(h, EventKind::kFleet, from_core, pair, ts_ns, static_cast<std::int64_t>(action),
             static_cast<std::int64_t>(to_core));
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
  if (h->ring->full()) return h->ring->drop(stamps.size());
  for (const ItemStamp& stamp : stamps) {
    push_event(h, EventKind::kItemStage, core, consumer, stamp.ts_ns,
               static_cast<std::int64_t>(stamp.item_id), static_cast<std::int64_t>(stamp.stage));
  }
}

}  // namespace detail

void Session::emit(const Event& event) {
  // A session is the installed one for its whole life, so the calling
  // thread's hot path binds to this session.
  if (detail::HotPath* h = detail::hot_path()) h->ring->push(event);
}

}  // namespace pcpc::obs
