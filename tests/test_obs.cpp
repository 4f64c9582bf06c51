// Tests for the pcpc::obs building blocks: the per-thread ledger shards
// (merge across writer threads), the log2 histogram binning, the SPSC
// trace ring (overflow drop accounting), and the session arming /
// hot-path lifecycle.
#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "pcpc/obs/obs.hpp"
#include "pcpc/obs/spans.hpp"
#include "pcpc/obs/trace_ring.hpp"

namespace pcpc::obs {
namespace {

TEST(ObsTally, MergesShardsAcrossThreads) {
  Session session;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const auto core = static_cast<std::uint16_t>(t);
      const auto consumer = static_cast<std::uint32_t>(t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        note_slot_batch(core, consumer, /*slot=*/0, /*batch=*/2,
                        /*ts_ns=*/static_cast<std::int64_t>(i),
                        /*dur_ns=*/static_cast<std::int64_t>(i % 1024));
        note_reservation(core, consumer, /*slot=*/0, /*latched=*/i % 2 == 0,
                         static_cast<std::int64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const WakeupLedger::Snapshot snapshot = session.ledger().snapshot();
  constexpr std::uint64_t kNotes = kThreads * kPerThread;
  EXPECT_EQ(snapshot.counter_value("consumer.batches"), kNotes);
  EXPECT_EQ(snapshot.counter_value("consumer.items"), 2 * kNotes);
  EXPECT_EQ(snapshot.counter_value("consumer.reservations"), kNotes);
  EXPECT_EQ(snapshot.counter_value("consumer.latched_reservations"), kNotes / 2);
  const auto histograms = snapshot.histograms();
  ASSERT_EQ(histograms.size(), 2u);
  for (const auto& h : histograms) EXPECT_EQ(h.total, kNotes) << h.name;
  // Every bin is the sum of the four threads' bins; every batch held 2
  // items, so one bin holds them all.
  WakeupLedger::Bins one_thread{};
  for (std::uint64_t i = 0; i < kPerThread; ++i) {
    ++one_thread[log2_bin(static_cast<std::int64_t>(i % 1024))];
  }
  for (std::size_t b = 0; b < kHistogramBins; ++b) {
    EXPECT_EQ((*histograms[0].bins)[b], kThreads * one_thread[b]) << "bin " << b;
  }
  EXPECT_EQ((*histograms[1].bins)[log2_bin(2)], kNotes);
  // Each thread's batches land in its own consumer row.
  ASSERT_EQ(snapshot.per_consumer_work.size(), kThreads);
  for (const auto& row : snapshot.per_consumer_work) EXPECT_EQ(row.batches, kPerThread);
  // One shard per writer thread (the main thread never wrote).
  EXPECT_EQ(session.ledger().shard_count(), kThreads);
}

TEST(StageHistogram, Log2BinClampsAndCovers) {
  EXPECT_EQ(log2_bin(-5), 0u);
  EXPECT_EQ(log2_bin(0), 0u);
  EXPECT_EQ(log2_bin(1), 0u);
  EXPECT_EQ(log2_bin(2), 1u);
  EXPECT_EQ(log2_bin(1023), 9u);
  EXPECT_EQ(log2_bin(1024), 10u);
  EXPECT_LT(log2_bin(INT64_MAX), kHistogramBins);
}

TEST(StageHistogram, BinsCountMinAndMaxFollowTheDocumentedBounds) {
  StageHistogram h;
  for (const std::int64_t ns : {-5, 0, 1, 2, 3, 4, 1023, 1024}) h.add(ns);
  EXPECT_EQ(h.count, 8u);
  EXPECT_EQ(h.min_ns, 0);  // a negative sample counts as 0 ns
  EXPECT_EQ(h.max_ns, 1024);
  // Bin i is [2^i, 2^(i+1)), bin 0 everything <= 1.
  std::array<std::uint64_t, kHistogramBins> want{};
  want[0] = 3;   // -5, 0, 1
  want[1] = 2;   // 2, 3
  want[2] = 1;   // 4
  want[9] = 1;   // 1023
  want[10] = 1;  // 1024
  EXPECT_EQ(h.bins, want);
}

TEST(TraceRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRing, OverflowDropsAreCountedNotSilent) {
  TraceRing ring(8);
  Event e;
  for (int i = 0; i < 20; ++i) {
    e.ts_ns = i;
    ring.push(e);
  }
  // 8 accepted, 12 dropped — every offered event is accounted somewhere.
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.pushed(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.pushed() + ring.dropped(), 20u);

  // The survivors are the *oldest* 20 (ring refuses when full, it does
  // not overwrite): timestamps 0..7 in order.
  std::vector<std::int64_t> seen;
  ring.drain([&seen](const Event& ev) { seen.push_back(ev.ts_ns); });
  ASSERT_EQ(seen.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(TraceRing, PushResumesAfterDrainFreesSpace) {
  TraceRing ring(8);
  Event e;
  for (int i = 0; i < 8; ++i) ring.push(e);
  EXPECT_FALSE(ring.push(e));  // full
  EXPECT_EQ(ring.drain([](const Event&) {}), 8u);
  // The producer's cached view of the consumer's tail refreshes on the
  // full path, so space freed by drain() is observed.
  EXPECT_TRUE(ring.push(e));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.pushed(), 9u);
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(Session, ArmsAndDisarmsTheGlobalFlag) {
  EXPECT_FALSE(enabled());
  EXPECT_EQ(Session::current(), nullptr);
  {
    Session session;
    EXPECT_TRUE(enabled());
    EXPECT_EQ(Session::current(), &session);
  }
  EXPECT_FALSE(enabled());
  EXPECT_EQ(Session::current(), nullptr);
}

TEST(Session, NoteCallsWithoutSessionAreNoOps) {
  // Must not crash or leak state into the next session.
  note_wakeup(0, 0, 0, true, true, 123);
  note_slot_batch(0, 0, 0, 5, 123, 456);
  count_sim_events(10);

  Session session;
  EXPECT_EQ(session.ledger().paid_total(), 0u);
  EXPECT_EQ(session.ledger().snapshot().counter_value("wakeups.paid"), 0u);
}

TEST(Session, HotPathRebindsAcrossConsecutiveSessions) {
  // The thread-local hot-path cache must not bleed counts from a dead
  // session into its successor (generation check).
  {
    Session first;
    note_wakeup(0, 1, 7, /*paid=*/true, /*scheduled=*/true, 10);
    EXPECT_EQ(first.ledger().paid_total(), 1u);
  }
  {
    Session second;
    note_wakeup(0, 1, 7, /*paid=*/false, /*scheduled=*/true, 20);
    EXPECT_EQ(second.ledger().paid_total(), 0u);
    EXPECT_EQ(second.ledger().free_total(), 1u);
    EXPECT_EQ(second.ledger().snapshot().counter_value("wakeups.free"), 1u);
  }
}

TEST(Session, RingOverflowIsCountedThroughTheSession) {
  SessionOptions options;
  options.ring_capacity = 8;
  Session session(options);
  for (int i = 0; i < 50; ++i) {
    note_reservation(0, 0, i, /*latched=*/false, /*ts_ns=*/i);
  }
  // Counters never drop; only the trace ring sheds load.
  EXPECT_EQ(session.ledger().snapshot().counter_value("consumer.reservations"), 50u);
  EXPECT_EQ(session.total_events_recorded(), 8u);
  EXPECT_EQ(session.ring_dropped(), 42u);
  EXPECT_EQ(session.events().size(), 8u);
}

TEST(Session, EventsAreSortedByTimestampAcrossRings) {
  Session session;
  std::thread([&] {
    note_wakeup(1, 1, 0, true, true, 200);
    note_wakeup(1, 1, 0, false, true, 400);
  }).join();
  note_wakeup(0, 0, 0, true, true, 300);
  note_wakeup(0, 0, 0, true, true, 100);
  const auto events = session.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST(Session, BulkSimEventCountMatchesSingles) {
  Session session;
  count_sim_events(1000);
  for (int i = 0; i < 24; ++i) count_sim_event();
  EXPECT_EQ(session.ledger().snapshot().counter_value("sim.events_dispatched"),
            1024u);
}

}  // namespace
}  // namespace pcpc::obs
