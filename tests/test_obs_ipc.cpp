// Cross-process telemetry plane: merge identities, crash-safe folds,
// span joins and attribution conservation.
//
// The properties pinned here are the telemetry plane's contract:
//
//   - merge identity: the shm-merged counter totals equal the sum of the
//     per-process locals exactly — including a producer that was
//     SIGKILLed mid-run and folded into the retired tallies by the
//     reaper (counts are never lost to slot reuse);
//   - paid-wake exactness, cross-process: merged telemetry paid_wakes ==
//     the channel's futex_wakes == the consumer session ledger's Σ w(τ);
//   - span join soundness: sampled item lifecycles drained out of the
//     producers' shm rings fold into complete spans on the shared
//     segment-epoch clock (no negative or re-ordered stage timestamps),
//     and every wake a span joins against exists in the ledger
//     (sampled paid wakes ⊆ ledger paid wakes);
//   - attribution conservation on the thread host: the --slo-report pair
//     rows are the ledger rows, so Σ pairs items == the runtime's items
//     and produced == items + drops, exactly.
//
// Fork-based tests run under ASan/UBSan via ci/sanitize.sh and self-skip
// under TSan (fork without exec).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/ipc/channel.hpp"
#include "pcpc/ipc/futex.hpp"
#include "pcpc/obs/attribution.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/obs/spans.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/trace/arrival_process.hpp"

#if defined(__SANITIZE_THREAD__)
#define PCPC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCPC_TSAN 1
#endif
#endif
#ifndef PCPC_TSAN
#define PCPC_TSAN 0
#endif

#define PCPC_SKIP_UNDER_TSAN()                                                   \
  do {                                                                           \
    if (PCPC_TSAN) GTEST_SKIP() << "fork-based harness incompatible with TSan"; \
  } while (0)

namespace pcpc::ipc {
namespace {

std::string unique_name(const char* tag) {
  static std::atomic<int> counter{0};
  return "/pcpc_" + std::string(tag) + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

ChannelConfig test_config(std::uint64_t span_every) {
  ChannelConfig cfg;
  cfg.capacity = 256;
  cfg.heartbeat_period_ns = 500'000;
  cfg.heartbeat_timeout_ns = 4'000'000;
  cfg.wake_threshold = 4;
  cfg.span_sample_every = span_every;
  return cfg;
}

ProducerConfig child_config() {
  ProducerConfig cfg;
  cfg.attach.attempts = 100;
  cfg.attach.initial_backoff_ms = 1;
  cfg.attach.max_backoff_ms = 20;
  cfg.full_retries = 1'000'000;
  return cfg;
}

/// Child body: attach, push `n` items (retrying kFull forever — the
/// parent is draining), report the acked count through `fd`, then either
/// detach cleanly or park for the parent's SIGKILL.  With `pause_every`
/// set, the child idles 2 ms after each that many items, long enough for
/// the consumer to drain and park, so the next burst rings a sleeping
/// consumer (a paid wake) however fast either side runs.
[[noreturn]] void producer_child(const std::string& name, std::uint64_t n, int fd,
                                 bool park_for_kill, std::uint64_t pause_every = 0) {
  auto producer = Producer::attach(name, child_config());
  if (!producer.has_value()) _exit(2);
  std::uint64_t acked = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (pause_every != 0 && i % pause_every == pause_every - 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (;;) {
      const PushResult r = producer->push(i);
      if (r == PushResult::kOk) {
        ++acked;
        break;
      }
      if (r != PushResult::kFull) _exit(3);
    }
  }
  if (::write(fd, &acked, sizeof(acked)) != sizeof(acked)) _exit(4);
  if (park_for_kill) {
    for (;;) ::pause();  // hold the registry slot; no detach, no heartbeat
  }
  producer->detach();
  _exit(0);
}

/// Drains until `expected` items were consumed and all `children` exited
/// (reaping them), with a deadline.  Calls wait() on idle edges so the
/// consumer actually sleeps and pays for wakes.
bool drain_until(Consumer& consumer, std::uint64_t expected,
                 std::vector<pid_t>& children, std::uint64_t* consumed) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    *consumed += consumer.drain([](std::uint64_t) {});
    for (auto it = children.begin(); it != children.end();) {
      int status = 0;
      if (::waitpid(*it, &status, WNOHANG) == *it) {
        it = children.erase(it);
      } else {
        ++it;
      }
    }
    if (*consumed >= expected && children.empty()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    if (!consumer.has_visible_work()) consumer.wait(/*timeout_ns=*/1'000'000);
  }
}

TEST(ObsIpc, MergedTotalsEqualSumOfPerProcessLocals) {
  PCPC_SKIP_UNDER_TSAN();
  if (!kFutexSupported) GTEST_SKIP() << "no futex on this platform";
  constexpr std::uint64_t kChildren = 3;
  constexpr std::uint64_t kItems = 2000;

  obs::SessionOptions options;
  options.span_sample_every = 8;
  obs::Session session(options);

  const std::string name = unique_name("obs_merge");
  auto consumer = Consumer::create(name, test_config(8));
  ASSERT_TRUE(consumer.has_value());

  int pipe_fd[2];
  ASSERT_EQ(::pipe(pipe_fd), 0);
  std::vector<pid_t> children;
  for (std::uint64_t c = 0; c < kChildren; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipe_fd[0]);
      producer_child(name, kItems, pipe_fd[1], /*park_for_kill=*/false);
    }
    children.push_back(pid);
  }
  ::close(pipe_fd[1]);

  std::uint64_t consumed = 0;
  ASSERT_TRUE(drain_until(*consumer, kChildren * kItems, children, &consumed));
  // Every child's own acked tally, read back from the pipe: the
  // per-process locals the merged totals must sum to.
  std::uint64_t local_sum = 0;
  for (std::uint64_t c = 0; c < kChildren; ++c) {
    std::uint64_t acked = 0;
    ASSERT_EQ(::read(pipe_fd[0], &acked, sizeof(acked)),
              static_cast<ssize_t>(sizeof(acked)));
    local_sum += acked;
  }
  ::close(pipe_fd[0]);
  consumer->drain_telemetry();

  const TelemetrySnapshot tel = consumer->telemetry();
  const ConservationReport rep = consumer->report();
  EXPECT_EQ(local_sum, kChildren * kItems);
  EXPECT_EQ(tel.pushed, local_sum);  // merged == Σ per-process locals, exact
  EXPECT_EQ(consumed, local_sum);
  // Cross-process paid-wake chain: merged telemetry == futex doorbell
  // counter == the consumer session ledger's Σ w(τ), identically.
  EXPECT_EQ(tel.paid_wakes, rep.futex_wakes);
  EXPECT_EQ(session.ledger().paid_total(), rep.futex_wakes);
}

TEST(ObsIpc, SigkilledProducerFoldsIntoRetiredTotals) {
  PCPC_SKIP_UNDER_TSAN();
  if (!kFutexSupported) GTEST_SKIP() << "no futex on this platform";
  constexpr std::uint64_t kItems = 500;
  constexpr std::uint64_t kSpanEvery = 8;

  obs::SessionOptions options;
  options.span_sample_every = kSpanEvery;
  obs::Session session(options);

  const std::string name = unique_name("obs_kill");
  auto consumer = Consumer::create(name, test_config(kSpanEvery));
  ASSERT_TRUE(consumer.has_value());

  int pipe_fd[2];
  ASSERT_EQ(::pipe(pipe_fd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipe_fd[0]);
    producer_child(name, kItems, pipe_fd[1], /*park_for_kill=*/true);
  }
  ::close(pipe_fd[1]);

  // Drain concurrently until the child reports all items acked (it
  // blocks on a full ring otherwise), then SIGKILL it while it still
  // holds its registry slot.
  std::uint64_t acked = 0;
  std::uint64_t consumed = 0;
  {
    std::atomic<bool> got{false};
    std::thread reader([&] {
      got.store(::read(pipe_fd[0], &acked, sizeof(acked)) ==
                static_cast<ssize_t>(sizeof(acked)));
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!got.load() && std::chrono::steady_clock::now() < deadline) {
      consumed += consumer->drain([](std::uint64_t) {});
      if (!consumer->has_visible_work()) consumer->wait(/*timeout_ns=*/1'000'000);
    }
    reader.join();
    ASSERT_TRUE(got.load());
    ::close(pipe_fd[0]);
  }
  ASSERT_EQ(acked, kItems);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);

  // The reaper needs the heartbeat stale AND the pid gone; loop until it
  // fires, folding the dead peer's counters into the retired totals.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (consumer->report().peers_reaped == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "reaper never fired";
    consumed += consumer->drain([](std::uint64_t) {});
    consumer->reap();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  consumed += consumer->drain([](std::uint64_t) {});

  const TelemetrySnapshot tel = consumer->telemetry();
  const ConservationReport rep = consumer->report();
  EXPECT_TRUE(tel.live.empty());          // the slot was freed...
  EXPECT_EQ(tel.pushed, kItems);          // ...but no counts were lost
  EXPECT_EQ(consumed, kItems);
  EXPECT_EQ(rep.admitted, rep.consumed + rep.reclaimed + rep.residue);
  // The span-stage counter folds exactly too: the child published two
  // stages (produce, enqueue) per sampled position before it died.
  const std::uint64_t sampled_positions = (kItems + kSpanEvery - 1) / kSpanEvery;
  EXPECT_EQ(tel.span_stages, 2 * sampled_positions);
  EXPECT_EQ(tel.paid_wakes, rep.futex_wakes);
  EXPECT_EQ(session.ledger().paid_total(), rep.futex_wakes);
}

TEST(ObsIpc, CrossProcessSpansJoinOnSharedClock) {
  PCPC_SKIP_UNDER_TSAN();
  if (!kFutexSupported) GTEST_SKIP() << "no futex on this platform";
  constexpr std::uint64_t kChildren = 2;
  constexpr std::uint64_t kItems = 1600;
  constexpr std::uint64_t kSpanEvery = 8;

  obs::SessionOptions options;
  options.span_sample_every = kSpanEvery;
  obs::Session session(options);

  const std::string name = unique_name("obs_span");
  auto consumer = Consumer::create(name, test_config(kSpanEvery));
  ASSERT_TRUE(consumer.has_value());

  int pipe_fd[2];
  ASSERT_EQ(::pipe(pipe_fd), 0);
  std::vector<pid_t> children;
  for (std::uint64_t c = 0; c < kChildren; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipe_fd[0]);
      // Bursts with idle gaps: the wake join below needs paid wakes, and
      // two producers pushing flat out can keep the consumer from ever
      // parking (it then only takes free timeout wakes).
      producer_child(name, kItems, pipe_fd[1], /*park_for_kill=*/false,
                     /*pause_every=*/100);
    }
    children.push_back(pid);
  }
  ::close(pipe_fd[1]);
  std::uint64_t consumed = 0;
  ASSERT_TRUE(drain_until(*consumer, kChildren * kItems, children, &consumed));
  ::close(pipe_fd[0]);
  consumer->drain_telemetry();

  const std::vector<obs::Event> events = session.events();
  // Producer-side stages arrive through the shm rings with their origin
  // stamped; all timestamps live in the segment-epoch clock domain, so
  // none may be negative.
  bool saw_remote_stage = false;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kItemStage) {
      EXPECT_GE(e.ts_ns, 0) << "stage outside the segment clock domain";
      if (e.origin != obs::kOriginLocal) saw_remote_stage = true;
    }
  }
  EXPECT_TRUE(saw_remote_stage);

  const obs::SpanFold fold = obs::fold_spans(events);
  EXPECT_GT(fold.complete_items, 0u);
  for (const obs::ItemSpan& span : fold.items) {
    if (!span.complete()) continue;
    EXPECT_LE(span.produce_ns, span.enqueue_ns);
    EXPECT_LE(span.drain_start_ns, span.handler_done_ns);
    EXPECT_NE(span.produce_origin, obs::kOriginLocal);  // produced remotely
  }
  // The wake join never invents wakes: one batch drains many sampled
  // items, so many spans may share one joined wake — but the *distinct*
  // joined wakes are a subset of the ledger's (sampled paid wakes ⊆
  // ledger paid wakes).
  std::set<std::int64_t> joined_paid, joined_any;
  for (const obs::ItemSpan& span : fold.items) {
    if (span.wake_ns < 0) continue;
    joined_any.insert(span.wake_ns);
    if (span.wake_paid) joined_paid.insert(span.wake_ns);
  }
  EXPECT_GT(fold.joined_paid_wakes, 0u);
  EXPECT_LE(joined_paid.size(), session.ledger().paid_total());
  EXPECT_LE(joined_any.size(),
            session.ledger().paid_total() + session.ledger().free_total());
}

TEST(ObsAttribution, ThreadHostSloReportConservation) {
  constexpr std::size_t kPairs = 3;
  constexpr std::uint64_t kItems = 3000;

  obs::SessionOptions options;
  options.span_sample_every = 16;
  obs::Session session(options);

  core::PbplConfig config;
  config.cores = 2;
  config.base_buffer = 64;
  config.slot_size = milliseconds(2);
  config.max_latency = milliseconds(10);
  {
    runtime::ThreadPbpl runtime(kPairs, config);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kPairs; ++p) {
      producers.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kItems; ++i) {
          runtime.produce(p);
          if (i % 64 == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    runtime.stop();

    const runtime::ThreadPbplStats stats = runtime.stats();
    obs::AttributionOptions aopt;
    aopt.delta_ns = config.max_latency;
    const obs::AttributionReport report = obs::build_attribution(session, aopt);

    // The pair rows are the ledger rows: their sums reproduce the
    // runtime's own conservation totals exactly.
    EXPECT_EQ(stats.produced, kPairs * kItems);
    EXPECT_EQ(report.items, stats.items);
    EXPECT_EQ(report.drops, stats.dropped());
    EXPECT_EQ(report.produced, stats.produced);
    EXPECT_EQ(report.paid + report.free,
              session.ledger().paid_total() + session.ledger().free_total());
    EXPECT_EQ(report.pairs.size(), kPairs);
    std::uint64_t pair_items = 0;
    for (const obs::PairAttribution& row : report.pairs) pair_items += row.items;
    EXPECT_EQ(pair_items, report.items);

    // Spans were armed: the Δ-budget accounting saw samples, and the
    // energy join is consistent (non-negative, summing across pairs).
    EXPECT_GT(report.slo_samples, 0u);
    EXPECT_LE(report.slo_violations, report.slo_samples);
    double pair_joules = 0.0;
    for (const obs::PairAttribution& row : report.pairs) pair_joules += row.joules;
    EXPECT_NEAR(report.joules, pair_joules, 1e-9);
  }
}

TEST(ObsAttribution, SimHostSpansFoldAndLedgerMatchesSimulator) {
  obs::SessionOptions options;
  options.span_sample_every = 32;
  obs::Session session(options);

  std::vector<trace::Trace> traces;
  Rng rng(0x5150);
  for (int i = 0; i < 4; ++i) {
    Rng stream = rng.fork();
    const trace::ConstantRate rate(3000.0);
    traces.push_back(trace::sample_nhpp(rate, seconds(2), stream));
  }
  core::PbplConfig config;
  config.cores = 2;
  const auto result = core::run_pbpl(traces, seconds(2), config);

  EXPECT_EQ(session.ledger().paid_total(), result.paid_wakeups);

  obs::AttributionOptions aopt;
  aopt.delta_ns = config.max_latency;
  const obs::AttributionReport report = obs::build_attribution(session, aopt);
  EXPECT_GT(report.spans.items.size(), 0u);
  EXPECT_GT(report.spans.complete_items, 0u);
  EXPECT_EQ(report.spans.orphan_stages, 0u);  // virtual time loses nothing
  EXPECT_GT(report.items, 0u);
  EXPECT_GT(report.slo_samples, 0u);
  std::set<std::int64_t> joined_paid;
  for (const obs::ItemSpan& span : report.spans.items) {
    if (span.wake_ns >= 0 && span.wake_paid) joined_paid.insert(span.wake_ns);
  }
  EXPECT_LE(joined_paid.size(), session.ledger().paid_total());

  // The report serializes as one JSON object with the documented keys.
  std::ostringstream out;
  obs::write_slo_report(out, report);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"delta_ns\"", "\"totals\"", "\"spans\"", "\"pairs\"",
                          "\"cores\"", "\"joules_per_item\"", "\"slo_violations\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace pcpc::ipc
