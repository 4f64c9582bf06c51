// Self-tests of the benchmark's own input generation and latency
// account.  run.py runs them before every measurement; a failure marks
// the run incorrect.  Exit code 0 = all passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "inputs.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_selftest: FAILED: %s\n", what);
    ++failures;
  }
}

bool same(const std::vector<pcpc::trace::Trace>& a, const std::vector<pcpc::trace::Trace>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto x = a[p].timestamps();
    const auto y = b[p].timestamps();
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

void seeds_make_inputs() {
  const auto a = e2e::web_traces(e2e::derive_seed(7, 1), 4, 2000.0, 2.0);
  const auto b = e2e::web_traces(e2e::derive_seed(7, 1), 4, 2000.0, 2.0);
  const auto c = e2e::web_traces(e2e::derive_seed(8, 1), 4, 2000.0, 2.0);
  expect(same(a, b), "the same seed generates identical inputs");
  expect(!same(a, c), "different seeds generate different inputs");
  expect(e2e::derive_seed(7, 1) != e2e::derive_seed(7, 2), "sub-seeds differ by stream");

  // The offered load is pinned: 2 s at 2 k items/s per pair, whatever
  // the seed, and every item falls inside the horizon.
  for (const auto& t : a) {
    expect(t.size() == 4000, "web trace offers exactly its nominal rate");
    expect(t.end_time() < pcpc::seconds(2), "web trace stays inside its horizon");
  }
  const auto schedule = e2e::merged_schedule(a);
  std::size_t total = 0;
  for (const auto& t : a) total += t.size();
  expect(schedule.size() == total, "the merged schedule holds every item");
  bool sorted = true;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    sorted = sorted && schedule[i - 1].due_ns <= schedule[i].due_ns;
  }
  expect(sorted, "the merged schedule is in due order");
}

void latency_account_is_exact() {
  // Two pairs, 10 items each, one due every 1 ms from t = 0.
  const std::vector<pcpc::trace::Trace> traces = {
      pcpc::trace::uniform_trace(10, pcpc::milliseconds(1)),
      pcpc::trace::uniform_trace(10, pcpc::milliseconds(1)),
  };
  e2e::LatencyMapper mapper(traces);
  // Pair 0: items 0..3 handled at 5 ms, items 4..9 at 12 ms.
  mapper.on_batch(0, 4, pcpc::milliseconds(5));
  mapper.on_batch(0, 6, pcpc::milliseconds(12));
  // Pair 1: an empty batch, then all 10 at 20 ms.
  mapper.on_batch(1, 0, pcpc::milliseconds(1));
  mapper.on_batch(1, 10, pcpc::milliseconds(20));

  std::vector<double> want;
  for (int i = 0; i < 4; ++i) want.push_back(5.0 - i);
  for (int i = 4; i < 10; ++i) want.push_back(12.0 - i);
  for (int i = 0; i < 10; ++i) want.push_back(20.0 - i);
  std::vector<double> got;
  mapper.for_each_latency([&](std::int64_t, std::int64_t ns) { got.push_back(static_cast<double>(ns) * 1e-6); });
  bool equal = got.size() == want.size();
  for (std::size_t i = 0; equal && i < got.size(); ++i) equal = std::abs(got[i] - want[i]) < 1e-9;
  expect(equal, "handler batches map to the pair's next due times");
  expect(mapper.handled_total() == 20, "every handled item is counted");
  expect(mapper.handled(0) == 10 && mapper.handled(1) == 10, "per-pair handled counts");
  expect(mapper.overrun() == 0, "no overrun on an exact replay");

  mapper.on_batch(1, 2, pcpc::milliseconds(30));
  expect(mapper.overrun() == 2, "items beyond a pair's offered count are overruns");
}

}  // namespace

int main() {
  seeds_make_inputs();
  latency_account_is_exact();
  if (failures == 0) std::fprintf(stderr, "bench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
