// Event taxonomy of the pcpc::obs trace layer.
//
// Every observable action in either host — a slot batch drain, a core
// wakeup with its paid/free attribution (the paper's w(τ_{i,j})), a
// reservation move, an overflow-policy action, a watchdog escalation, an
// injected fault, a dropped item — reduces to one fixed-size POD Event so
// the per-thread trace rings can stay lock-free and allocation-free.
// Timestamps are host time: virtual nanoseconds on the simulation host,
// wall nanoseconds since the run epoch on the thread host.
#pragma once

#include <cstdint>

namespace pcpc::obs {

/// What happened.  The numeric values are part of the exported trace
/// format; append, never renumber.
enum class EventKind : std::uint8_t {
  kWakeup = 0,       ///< consumer invocation at a core wakeup (paid/free flag)
  kSlotBatch = 1,    ///< one consumer's batch drain (span: ts .. ts+dur)
  kReservation = 2,  ///< consumer booked a slot (arg0 = slot, arg1 = latched)
  kOverflow = 3,     ///< overflow-policy action (arg0 = OverflowAction)
  kWatchdog = 4,     ///< deadline watchdog escalation (arg0 = overrun ns)
  kFault = 5,        ///< injected fault fired (arg0 = FaultKind, arg1 = magnitude)
  kDrop = 6,         ///< item dropped (arg0 = DropPath)
  kQueueResize = 7,  ///< hand-off queue capacity changed (arg0 = old, arg1 = new)
  kItemStage = 8,    ///< sampled item-lifecycle stage (arg0 = item id, arg1 = ItemStage)
  kFleet = 9,        ///< fleet action (arg0 = FleetAction, arg1 = destination core)
};

/// What the fleet controller did (EventKind::kFleet, arg0).  For
/// kMigrate, `consumer` is the migrated pair, `core` the source core and
/// arg1 the destination; park/unpark carry the core in both fields and
/// kNoConsumer.
enum class FleetAction : std::uint8_t {
  kMigrate = 0,  ///< a pair moved between cores
  kPark = 1,     ///< a core's manager retired (core fully idle)
  kUnpark = 2,   ///< a parked core's manager respawned
};

/// Lifecycle stage of a sampled item (EventKind::kItemStage, arg1).
/// The wake stage is not stamped directly: the span fold joins each
/// drain-start against the last kWakeup event on the same (origin, core)
/// track, so sampled wakes are by construction a subset of the ledger's.
enum class ItemStage : std::uint8_t {
  kProduce = 0,      ///< producer entered push/produce
  kEnqueue = 1,      ///< item published into the hand-off queue
  kDrainStart = 2,   ///< consumer began draining the batch holding it
  kHandlerDone = 3,  ///< handler finished the batch holding it
};

/// One lifecycle stage of one sampled item (obs::note_item_stages()).
struct ItemStamp {
  std::uint64_t item_id;
  std::int64_t ts_ns;
  ItemStage stage;
};

/// Which overflow-handling path fired.
enum class OverflowAction : std::uint8_t {
  kEmergencyBorrow = 0,  ///< pool segments absorbed the overflow
  kForcedDrain = 1,      ///< unscheduled wakeup raised to drain the buffer
};

/// Which drop path lost the item (mirrors ThreadPbplStats).
enum class DropPath : std::uint8_t {
  kOldest = 0,  ///< evicted under OverflowPolicy::DropOldest
  kNewest = 1,  ///< rejected under OverflowPolicy::DropNewest
  kOnStop = 2,  ///< lost to a stop() race
};

/// Which fault class the injector fired (mirrors pcpc::fault).
enum class FaultKind : std::uint8_t {
  kBurst = 0,
  kStall = 1,
  kSlowHandler = 2,
  kDeadlineJitter = 3,
  kPoolPressure = 4,
  kProcKill = 5,     ///< producer process SIGKILLed mid-protocol (pcpc::ipc)
  kProcStop = 6,     ///< producer process SIGSTOP/SIGCONT suspended
  kAttachDelay = 7,  ///< shm attach artificially delayed
  kLoadSwing = 8,    ///< seeded utilization swing crossed a period boundary
};

/// Sentinel consumer id for events not tied to one consumer.
inline constexpr std::uint32_t kNoConsumer = 0xffffffffu;

/// Sentinel slot for events outside the slot grid (overflow drains,
/// baseline wakeups).
inline constexpr std::int64_t kNoSlot = INT64_MIN;

/// Event::flags bits.
inline constexpr std::uint8_t kFlagPaid = 1u << 0;       ///< wakeup paid ω
inline constexpr std::uint8_t kFlagScheduled = 1u << 1;  ///< slot-scheduled (not overflow)

/// Sentinel origin: the event was recorded by this process.
inline constexpr std::uint16_t kOriginLocal = 0;

/// One fixed-size trace record.  `arg0`/`arg1` are kind-specific: slot
/// index and batch size for kSlotBatch, slot and latched for
/// kReservation, see EventKind.  `origin` identifies the recording
/// process in a merged cross-process trace: kOriginLocal for events this
/// process recorded, k+1 for events drained from ipc producer registry
/// slot k's shm trace ring (exporters map origins to Perfetto pids).
struct Event {
  std::int64_t ts_ns = 0;   ///< host time
  std::int64_t dur_ns = 0;  ///< span length; 0 = instant
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  std::uint32_t consumer = kNoConsumer;
  std::uint16_t core = 0;
  EventKind kind = EventKind::kWakeup;
  std::uint8_t flags = 0;
  std::uint16_t origin = kOriginLocal;

  bool paid() const { return (flags & kFlagPaid) != 0; }
  bool scheduled() const { return (flags & kFlagScheduled) != 0; }
};
static_assert(sizeof(Event) == 48, "Event is shared-memory ABI (pcpc::ipc)");

/// Stable name of a lifecycle stage (trace export, reports).
const char* item_stage_name(ItemStage stage);

/// Stable name of an event kind (trace export, snapshots, tests).
const char* event_kind_name(EventKind kind);

/// Stable names of the enum payloads.
const char* overflow_action_name(OverflowAction action);
const char* drop_path_name(DropPath path);
const char* fault_kind_name(FaultKind kind);
const char* fleet_action_name(FleetAction action);

}  // namespace pcpc::obs
