// Varlen zero-copy throughput floor gate (run by ci/bench_smoke.sh).
//
// The in-ring record plane exists to delete the two memcpys the
// fixed-size item path forces onto every real payload: producer staging
// buffer -> queue, queue -> consumer staging buffer.  The gate measures
// exactly that delta, per payload size, on both ring disciplines:
//
//   - copy path:  fill a staging buffer, try_push_record (memcpy in),
//                 drain + memcpy out to a staging buffer, checksum it;
//   - zero-copy:  reserve, fill the ring storage in place, commit,
//                 drain and checksum the in-ring span directly.
//
// Both paths generate and checksum-touch every payload byte, so the
// difference is purely the staging copies.  Floors: at the 4 KiB point
// (large enough to be bandwidth-bound, small enough to live in cache)
// zero-copy must hold >= 1.5x on the SPSC ring and >= 1.2x with four
// producers on the MPSC lanes; medians over trials absorb scheduler
// noise, and the JSON record carries the MPSC pair's min and max.
//
// Usage: varlen_floor [--bytes=N] [--trials=N] [--json-out=F]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/queue/lanes.hpp"
#include "pcpc/queue/varlen.hpp"

namespace {

using pcpc::queue::VarMpscLanes;
using pcpc::queue::VarReservation;
using pcpc::queue::VarSpscRing;

constexpr std::uint32_t kGateSize = 4096;
constexpr double kSpscFloor = 1.5;
constexpr double kMpscFloor = 1.2;
constexpr std::size_t kRingBytes = 1u << 20;  ///< logical capacity, footprint bytes
constexpr std::uint32_t kMaxRecord = 16u << 10;

struct Options {
  std::uint64_t bytes = 64u << 20;  ///< payload bytes moved per trial
  std::size_t trials = 5;
  std::string json_out;
};

/// Generates record `seq`'s payload directly into `dst` (8-byte words;
/// every byte written) and returns the checksum the consumer must see.
std::uint64_t fill_payload(std::byte* dst, std::uint32_t size, std::uint64_t seq) {
  std::uint64_t sum = 0;
  const std::size_t words = size / 8;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t v = seq * 0x9e3779b97f4a7c15ull + w;
    std::memcpy(dst + w * 8, &v, 8);
    sum ^= v;
  }
  for (std::size_t i = words * 8; i < size; ++i) {
    dst[i] = static_cast<std::byte>(seq + i);
    sum ^= static_cast<std::uint64_t>(dst[i]) << (8 * (i % 8));
  }
  return sum;
}

/// Checksums a payload the same way fill_payload counted it.
std::uint64_t checksum_payload(const std::byte* src, std::size_t size) {
  std::uint64_t sum = 0;
  const std::size_t words = size / 8;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t v = 0;
    std::memcpy(&v, src + w * 8, 8);
    sum ^= v;
  }
  for (std::size_t i = words * 8; i < size; ++i) {
    sum ^= static_cast<std::uint64_t>(src[i]) << (8 * (i % 8));
  }
  return sum;
}

/// One trial on ring type R with `producers` producer threads; returns
/// payload bytes per second.  `zero_copy` selects the path under test.
template <typename R>
double run_trial(std::size_t producers, std::uint32_t size, std::uint64_t total_bytes,
                 bool zero_copy) {
  R ring(kRingBytes, /*max_bytes=*/0, kMaxRecord);
  const std::uint64_t records = std::max<std::uint64_t>(1, total_bytes / size);
  const std::uint64_t per_producer = records / producers;
  const std::uint64_t total = per_producer * producers;

  std::atomic<std::uint64_t> produced_sum{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&ring, &produced_sum, per_producer, size, zero_copy, p] {
      std::uint64_t sum = 0;
      std::vector<std::byte> staging(size);
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const std::uint64_t seq = p * per_producer + i;
        if (zero_copy) {
          VarReservation r;
          while (!ring.try_reserve(size, r)) std::this_thread::yield();
          sum ^= fill_payload(r.data, size, seq);
          ring.commit(r);
        } else {
          sum ^= fill_payload(staging.data(), size, seq);
          while (!ring.try_push_record(std::span<const std::byte>(staging))) {
            std::this_thread::yield();
          }
        }
      }
      produced_sum.fetch_xor(sum, std::memory_order_relaxed);
    });
  }

  std::uint64_t consumed = 0;
  std::uint64_t consumed_sum = 0;
  std::vector<std::byte> staging(size);
  while (consumed < total) {
    const std::size_t n = ring.drain(
        [&](std::span<const std::byte> payload) {
          if (zero_copy) {
            consumed_sum ^= checksum_payload(payload.data(), payload.size());
          } else {
            std::memcpy(staging.data(), payload.data(), payload.size());
            consumed_sum ^= checksum_payload(staging.data(), payload.size());
          }
        },
        /*max_records=*/256);
    if (n == 0) {
      std::this_thread::yield();
    } else {
      consumed += n;
    }
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (consumed_sum != produced_sum.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "varlen_floor: FAIL — checksum mismatch (torn payload)\n");
    std::exit(1);
  }
  return static_cast<double>(total) * size / seconds;
}

/// Payload bytes per second over the trials of one configuration.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

template <typename R>
Spread rate(std::size_t producers, std::uint32_t size, const Options& options,
            bool zero_copy) {
  std::vector<double> samples;
  for (std::size_t t = 0; t < options.trials; ++t) {
    samples.push_back(run_trial<R>(producers, size, options.bytes, zero_copy));
  }
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bytes=", 8) == 0) {
      options.bytes = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      options.trials = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      options.json_out = argv[i] + 11;
    } else {
      std::fprintf(stderr, "varlen_floor: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  const std::uint32_t sizes[] = {64, 256, 1024, 4096, 16384};
  std::printf("varlen_floor (median of %zu trials, %llu MiB/trial)\n", options.trials,
              static_cast<unsigned long long>(options.bytes >> 20));

  double spsc_ratio_gate = 0.0;
  double spsc_zero_gate = 0.0;
  double spsc_copy_gate = 0.0;
  std::string json_sizes;
  for (const std::uint32_t size : sizes) {
    const double copy = rate<VarSpscRing<>>(1, size, options, false).median;
    const double zero = rate<VarSpscRing<>>(1, size, options, true).median;
    const double ratio = zero / copy;
    std::printf("  spsc %6u B: copy %8.2f MB/s | zero-copy %8.2f MB/s (%.2fx)\n",
                size, copy / 1e6, zero / 1e6, ratio);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"spsc_ratio_%u\":%.3f,", size, ratio);
    json_sizes += buf;
    if (size == kGateSize) {
      spsc_ratio_gate = ratio;
      spsc_zero_gate = zero;
      spsc_copy_gate = copy;
    }
  }

  const Spread mpsc_copy = rate<VarMpscLanes>(4, kGateSize, options, false);
  const Spread mpsc_zero = rate<VarMpscLanes>(4, kGateSize, options, true);
  const double mpsc_ratio = mpsc_zero.median / mpsc_copy.median;
  std::printf("  mpsc 4p %4u B: copy %8.2f MB/s | zero-copy %8.2f MB/s (%.2fx)\n",
              kGateSize, mpsc_copy.median / 1e6, mpsc_zero.median / 1e6, mpsc_ratio);

  int failures = 0;
  if (spsc_ratio_gate < kSpscFloor) {
    std::fprintf(stderr,
                 "varlen_floor: FAIL — SPSC zero-copy %.2fx under the %.2fx floor "
                 "at %u B\n",
                 spsc_ratio_gate, kSpscFloor, kGateSize);
    ++failures;
  }
  if (mpsc_ratio < kMpscFloor) {
    std::fprintf(stderr,
                 "varlen_floor: FAIL — MPSC zero-copy %.2fx under the %.2fx floor "
                 "at %u B\n",
                 mpsc_ratio, kMpscFloor, kGateSize);
    ++failures;
  }

  if (!options.json_out.empty()) {
    std::FILE* f = std::fopen(options.json_out.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"varlen_floor\",\"trials\":%zu,%s\"mpsc_ratio_%u\":%.3f,"
                   "\"spsc_zero_mbps\":%.1f,\"spsc_copy_mbps\":%.1f,"
                   "\"mpsc_zero_mbps\":%.1f,\"mpsc_zero_mbps_min\":%.1f,"
                   "\"mpsc_zero_mbps_max\":%.1f,\"mpsc_copy_mbps\":%.1f,"
                   "\"mpsc_copy_mbps_min\":%.1f,\"mpsc_copy_mbps_max\":%.1f,"
                   "\"pass\":%s}\n",
                   options.trials, json_sizes.c_str(), kGateSize, mpsc_ratio,
                   spsc_zero_gate / 1e6, spsc_copy_gate / 1e6, mpsc_zero.median / 1e6,
                   mpsc_zero.min / 1e6, mpsc_zero.max / 1e6, mpsc_copy.median / 1e6,
                   mpsc_copy.min / 1e6, mpsc_copy.max / 1e6,
                   failures == 0 ? "true" : "false");
      std::fclose(f);
    }
  }
  if (failures == 0) std::printf("varlen_floor: floors hold\n");
  return failures == 0 ? 0 : 1;
}
