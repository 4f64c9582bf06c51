// Queue backend selection for the producer→consumer hand-off path.
//
// The paper's PBPL batches wakeups, but a mutex-guarded buffer still
// serializes every producer on one lock — the scaling bottleneck of the
// "multiple producer" regime.  This header names the pluggable backends
// the hosts can run the hand-off on; the implementations live in
// spsc_ring.hpp / lanes.hpp and are threaded through both hosts via the
// Handoff adapters in handoff.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace pcpc::queue {

/// Which concurrent queue carries items from producers to a consumer.
enum class BackendKind : std::uint8_t {
  /// The SPSC ring below driven under the host's own mutex (any number of
  /// producers, since the lock serializes them).  Producers and the
  /// consumer serialize per item.
  Mutex = 0,
  /// Cache-line-padded wait-free SPSC ring with cached head/tail indices
  /// and optional batched index publication (Torquati).  One producer
  /// thread per consumer; pushes never touch the host lock.
  SpscRing = 1,
  /// Fan-in of per-producer SPSC rings (lanes.hpp): any number of
  /// producer threads feed one consumer without a lock; each thread keeps
  /// one of 8 lanes, so order is FIFO per producer.
  MpscSeg = 2,
};

/// Every backend, in config/CLI order.
inline constexpr BackendKind kAllBackends[] = {BackendKind::Mutex, BackendKind::SpscRing,
                                               BackendKind::MpscSeg};

/// Default bound on a single varlen record's payload (see varlen.hpp /
/// VarHandoff in handoff.hpp): every backend kind also carries a
/// byte-granular variable-size record plane on the SPSC byte ring — under
/// the host lock (Mutex), bare (SpscRing) or as per-producer lanes
/// (MpscSeg).
inline constexpr std::uint32_t kDefaultMaxVarRecordBytes = 16u << 10;

/// Stable config/CLI name ("mutex", "spsc", "mpsc").
inline const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Mutex: return "mutex";
    case BackendKind::SpscRing: return "spsc";
    case BackendKind::MpscSeg: return "mpsc";
  }
  return "?";
}

/// Inverse of backend_name(); nullopt on an unknown name.
inline std::optional<BackendKind> parse_backend(const std::string& name) {
  if (name == "mutex") return BackendKind::Mutex;
  if (name == "spsc") return BackendKind::SpscRing;
  if (name == "mpsc") return BackendKind::MpscSeg;
  return std::nullopt;
}

}  // namespace pcpc::queue
