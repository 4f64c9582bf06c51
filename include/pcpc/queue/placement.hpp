// Placement-agnostic slot storage for the lock-free queues.
//
// The cross-process host (pcpc::ipc) needs ring storage that can live in
// a memory-mapped segment shared between processes, where the mapping
// base address differs per process — so the storage must be *pointer-
// free*: either owned on the heap (the in-process default) or addressed
// by a self-relative offset that stays valid wherever the containing
// object is mapped.  Both queues (SpscRing, MpscSegQueue) take a slot
// storage policy:
//
//   - HeapSlots<E>: the seed behaviour, an owned value-initialized array;
//   - OffsetSlots<E>: a non-owning view of caller-placed slots, stored as
//     a byte offset relative to the policy object itself.  As long as the
//     queue object and its slot array live in the same mapping (the shm
//     layout guarantees this), every process reads the same offset and
//     resolves its own local address.
//
// The policy is a *storage* decision only: admission, handshake and
// index arithmetic are identical across placements, which is what the
// differential test (heap vs shm, bit-identical trajectories) pins down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "pcpc/common/assert.hpp"

namespace pcpc::queue {

/// Where a queue's slot array should live.  Default (base == nullptr)
/// means "allocate on the heap"; a non-null base means "the caller has
/// reserved `bytes_available` bytes at `base` — construct the slots
/// there".  The base must be suitably aligned for the slot type (the shm
/// layout aligns regions to cache lines).
struct Placement {
  void* base = nullptr;
  std::size_t bytes_available = 0;
};

/// Owned heap array (the in-process default).  Accepts and ignores a
/// default Placement so queue constructors can thread one placement
/// parameter through both policies.
template <typename E>
class HeapSlots {
 public:
  explicit HeapSlots(std::size_t count, Placement placement = {})
      : slots_(new E[count]()) {
    PCPC_ASSERT_MSG(placement.base == nullptr,
                    "HeapSlots cannot adopt external placement");
  }

  E* data() { return slots_.get(); }
  const E* data() const { return slots_.get(); }

 private:
  std::unique_ptr<E[]> slots_;
};

/// Non-owning, self-relative view of externally placed slots.  The slots
/// are value-constructed in place at construction; the policy stores only
/// the byte distance from itself to the array, so the pair (queue object,
/// slot array) can be memcpy'd or mapped at any address — in particular a
/// shared-memory segment mapped at different addresses per process.
template <typename E>
class OffsetSlots {
 public:
  explicit OffsetSlots(std::size_t count, Placement placement) {
    PCPC_ASSERT_MSG(placement.base != nullptr, "OffsetSlots needs a placement base");
    PCPC_ASSERT_MSG(placement.bytes_available >= count * sizeof(E),
                    "placement region too small for slot array");
    PCPC_ASSERT_MSG(reinterpret_cast<std::uintptr_t>(placement.base) % alignof(E) == 0,
                    "placement base misaligned for slot type");
    E* base = static_cast<E*>(placement.base);
    for (std::size_t i = 0; i < count; ++i) ::new (static_cast<void*>(base + i)) E();
    count_ = count;
    offset_ = reinterpret_cast<const char*>(base) - reinterpret_cast<const char*>(this);
  }

  OffsetSlots(const OffsetSlots&) = delete;
  OffsetSlots& operator=(const OffsetSlots&) = delete;

  ~OffsetSlots() {
    if constexpr (!std::is_trivially_destructible_v<E>) {
      E* base = data();
      for (std::size_t i = 0; i < count_; ++i) base[i].~E();
    }
  }

  // Through an integer: the slots lie outside this object, and pointer
  // arithmetic from `this` would make the compiler's object-size checks
  // (-Wstringop-overflow) bound writes by sizeof(*this).
  E* data() {
    return reinterpret_cast<E*>(reinterpret_cast<std::uintptr_t>(this) +
                                static_cast<std::uintptr_t>(offset_));
  }
  const E* data() const {
    return reinterpret_cast<const E*>(reinterpret_cast<std::uintptr_t>(this) +
                                      static_cast<std::uintptr_t>(offset_));
  }

 private:
  std::ptrdiff_t offset_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pcpc::queue
