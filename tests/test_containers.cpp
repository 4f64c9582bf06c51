// Tests for RingBuffer, MovingAverage, the fixed-capacity Mutex hand-off
// the thread baselines buffer through, and the report formatting
// utilities (Table / CsvWriter).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "pcpc/common/csv.hpp"
#include "pcpc/common/moving_average.hpp"
#include "pcpc/common/ring_buffer.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/common/table.hpp"
#include "pcpc/queue/handoff.hpp"

namespace pcpc {
namespace {

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.pop(), std::optional<int>(i));
  EXPECT_EQ(ring.pop(), std::nullopt);
}

TEST(RingBuffer, RejectsWhenFull) {
  RingBuffer<int> ring(2);
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_FALSE(ring.push(3));
  EXPECT_EQ(ring.size(), 2u);
}

TEST(RingBuffer, WrapAround) {
  RingBuffer<int> ring(3);
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(*ring.pop(), 1);
  ring.push(3);
  ring.push(4);  // wraps
  EXPECT_EQ(*ring.pop(), 2);
  EXPECT_EQ(*ring.pop(), 3);
  EXPECT_EQ(*ring.pop(), 4);
}

TEST(RingBuffer, RandomOpsPreserveFifo) {
  // Property: a ring buffer behaves exactly like a bounded FIFO queue.
  RingBuffer<std::uint64_t> ring(7);
  Rng rng(99);
  std::uint64_t next_in = 0, next_out = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(0.55)) {
      if (ring.push(next_in)) ++next_in;
    } else if (auto v = ring.pop()) {
      ASSERT_EQ(*v, next_out);
      ++next_out;
    }
    ASSERT_EQ(ring.size(), next_in - next_out);
  }
}

TEST(RingBuffer, AtAndFront) {
  RingBuffer<int> ring(4);
  ring.push(10);
  ring.push(20);
  ring.push(30);
  EXPECT_EQ(ring.front(), 10);
  EXPECT_EQ(ring.at(0), 10);
  EXPECT_EQ(ring.at(2), 30);
}

TEST(RingBuffer, Clear) {
  RingBuffer<int> ring(3);
  ring.push(1);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.push(5));
  EXPECT_EQ(*ring.pop(), 5);
}

TEST(MovingAverage, ExactWindowedMean) {
  MovingAverage avg(3);
  EXPECT_EQ(avg.value(), 0.0);
  avg.add(3.0);
  EXPECT_DOUBLE_EQ(avg.value(), 3.0);
  avg.add(6.0);
  EXPECT_DOUBLE_EQ(avg.value(), 4.5);
  avg.add(9.0);
  EXPECT_DOUBLE_EQ(avg.value(), 6.0);
  avg.add(12.0);  // evicts 3.0
  EXPECT_DOUBLE_EQ(avg.value(), 9.0);
}

TEST(MovingAverage, MatchesPaperFormula) {
  // r̂_{i+1} = (Σ_{j=i-h+1..i} r_j)/h for the last h observations.
  const std::size_t h = 5;
  MovingAverage avg(h);
  std::vector<double> rates;
  for (int i = 0; i < 20; ++i) {
    const double r = 100.0 + 17.0 * i;
    rates.push_back(r);
    avg.add(r);
    double expected = 0.0;
    const std::size_t window = std::min<std::size_t>(h, rates.size());
    for (std::size_t j = rates.size() - window; j < rates.size(); ++j) expected += rates[j];
    expected /= static_cast<double>(window);
    ASSERT_DOUBLE_EQ(avg.value(), expected);
  }
}

TEST(MovingAverage, Reset) {
  MovingAverage avg(4);
  avg.add(10.0);
  avg.reset();
  EXPECT_EQ(avg.count(), 0u);
  EXPECT_EQ(avg.value(), 0.0);
}

TEST(BoundedBuffer, CountsOverflows) {
  auto buffer = queue::make_handoff<int>(queue::BackendKind::Mutex, 2);
  EXPECT_TRUE(buffer->try_push(1));
  EXPECT_TRUE(buffer->try_push(2));
  EXPECT_FALSE(buffer->try_push(3));
  EXPECT_FALSE(buffer->try_push(4));
  EXPECT_EQ(buffer->overflows(), 2u);
  EXPECT_EQ(buffer->size(), 2u);
}

TEST(Table, AlignsAndCounts) {
  Table table({"name", "value"});
  table.add("alpha", 1.5);
  table.add(std::string("b"), 12345LL);
  EXPECT_EQ(table.rows(), 2u);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  // Header separator lines present.
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(Table, TitlePrinted) {
  Table table({"x"});
  table.set_title("My Title");
  EXPECT_EQ(table.to_string().rfind("My Title", 0), 0u);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(3.0, 0), "3");
  EXPECT_EQ(format_double(-1.005, 1), "-1.0");
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  const std::string path = ::testing::TempDir() + "/pcpc_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.write_row({"plain", "with,comma"});
    csv.write_row({"with\"quote", "line\nbreak"});
    EXPECT_EQ(csv.rows(), 2u);
  }
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("a,b\n"), std::string::npos);
  EXPECT_NE(contents.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(contents.find("\"with\"\"quote\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcpc
