// Tests for PbplConfig parsing/printing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "pcpc/core/config_io.hpp"

namespace pcpc::core {
namespace {

TEST(ConfigIo, AppliesEveryKey) {
  PbplConfig config;
  std::string error;
  const std::vector<std::string> options{
      "cores=3",
      "slot_size_us=2500",
      "max_latency_us=50000",
      "base_buffer=40",
      "pool_segment=8",
      "predictor=kalman",
      "predictor_window=12",
      "latching=0",
      "dynamic_resize=false",
      "emergency_borrow=off",
      "latency_guard=true",
      "fill_tolerance=1.2",
      "resize_headroom=1.4",
      "manager_overhead_us=5",
      "assignment=packed",
      "utilization_cap=0.7",
      "service_per_item_us=4",
      "service_per_invocation_us=6",
      "wakeup_cost_uj=100",
      "per_item_cost_uj=2.5",
      "per_invocation_cost_uj=1.5",
  };
  ASSERT_TRUE(apply_options(config, options, &error)) << error;
  EXPECT_EQ(config.cores, 3u);
  EXPECT_EQ(config.slot_size, microseconds(2500));
  EXPECT_EQ(config.max_latency, milliseconds(50));
  EXPECT_EQ(config.base_buffer, 40u);
  EXPECT_EQ(config.pool_segment, 8u);
  EXPECT_EQ(config.predictor, PredictorKind::Kalman);
  EXPECT_EQ(config.predictor_window, 12u);
  EXPECT_FALSE(config.latching);
  EXPECT_FALSE(config.dynamic_resize);
  EXPECT_FALSE(config.emergency_borrow);
  EXPECT_TRUE(config.latency_guard);
  EXPECT_DOUBLE_EQ(config.fill_tolerance, 1.2);
  EXPECT_DOUBLE_EQ(config.resize_headroom, 1.4);
  EXPECT_EQ(config.manager_overhead, microseconds(5));
  EXPECT_EQ(config.assignment, AssignmentPolicy::Packed);
  EXPECT_DOUBLE_EQ(config.utilization_cap, 0.7);
  EXPECT_EQ(config.service.per_item, microseconds(4));
  EXPECT_EQ(config.service.per_invocation, microseconds(6));
  EXPECT_NEAR(config.costs.wakeup_j, 100e-6, 1e-12);
  EXPECT_NEAR(config.costs.per_item_j, 2.5e-6, 1e-15);
  EXPECT_NEAR(config.costs.per_invocation_j, 1.5e-6, 1e-15);
}

TEST(ConfigIo, RejectsUnknownKey) {
  PbplConfig config;
  std::string error;
  EXPECT_FALSE(apply_option(config, "not_a_key=1", &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
}

TEST(ConfigIo, RejectsMalformedAssignments) {
  PbplConfig config;
  std::string error;
  EXPECT_FALSE(apply_option(config, "cores", &error));
  EXPECT_FALSE(apply_option(config, "=5", &error));
  EXPECT_FALSE(apply_option(config, "cores=zero", &error));
  EXPECT_FALSE(apply_option(config, "cores=0", &error));
  EXPECT_FALSE(apply_option(config, "latching=maybe", &error));
  EXPECT_FALSE(apply_option(config, "predictor=oracle", &error));
  EXPECT_FALSE(apply_option(config, "fill_tolerance=0.5", &error));
  EXPECT_FALSE(apply_option(config, "assignment=random", &error));
}

TEST(ConfigIo, StopsAtFirstError) {
  PbplConfig config;
  std::string error;
  const std::vector<std::string> options{"cores=4", "bogus=1", "base_buffer=99"};
  EXPECT_FALSE(apply_options(config, options, &error));
  EXPECT_EQ(config.cores, 4u);            // first applied
  EXPECT_NE(config.base_buffer, 99u);     // third never reached
}

TEST(ConfigIo, DescribeRoundTrips) {
  PbplConfig original;
  original.cores = 7;
  original.slot_size = milliseconds(3);
  original.predictor = PredictorKind::Ewma;
  original.latching = false;
  original.assignment = AssignmentPolicy::RateBalanced;
  original.fill_tolerance = 1.25;

  // Parse the dump back into a fresh config.
  PbplConfig parsed;
  std::string error;
  std::istringstream dump(describe(original));
  std::string line;
  while (std::getline(dump, line)) {
    ASSERT_TRUE(apply_option(parsed, line, &error)) << line << ": " << error;
  }
  EXPECT_EQ(parsed.cores, original.cores);
  EXPECT_EQ(parsed.slot_size, original.slot_size);
  EXPECT_EQ(parsed.predictor, original.predictor);
  EXPECT_EQ(parsed.latching, original.latching);
  EXPECT_EQ(parsed.assignment, original.assignment);
  EXPECT_DOUBLE_EQ(parsed.fill_tolerance, original.fill_tolerance);
}

TEST(ConfigIo, OverflowPolicyAndWatchdogRoundTrip) {
  PbplConfig config;
  std::string error;
  ASSERT_TRUE(apply_option(config, "overflow_policy=drop_oldest", &error)) << error;
  EXPECT_EQ(config.overflow_policy, OverflowPolicy::DropOldest);
  ASSERT_TRUE(apply_option(config, "overflow_policy=drop_newest", &error));
  EXPECT_EQ(config.overflow_policy, OverflowPolicy::DropNewest);
  // Borrowing is the emergency_borrow flag, not a policy.
  EXPECT_FALSE(apply_option(config, "overflow_policy=borrow", &error));
  EXPECT_NE(error.find("overflow_policy"), std::string::npos) << error;
  EXPECT_EQ(config.overflow_policy, OverflowPolicy::DropNewest);
  ASSERT_TRUE(apply_option(config, "watchdog_factor=2.5", &error));
  EXPECT_DOUBLE_EQ(config.watchdog_factor, 2.5);
  EXPECT_FALSE(apply_option(config, "overflow_policy=panic", &error));
  EXPECT_FALSE(apply_option(config, "watchdog_factor=-1", &error));

  // Both knobs survive a describe → parse round trip.
  PbplConfig parsed;
  std::istringstream dump(describe(config));
  std::string line;
  while (std::getline(dump, line)) {
    ASSERT_TRUE(apply_option(parsed, line, &error)) << line << ": " << error;
  }
  EXPECT_EQ(parsed.overflow_policy, OverflowPolicy::DropNewest);
  EXPECT_DOUBLE_EQ(parsed.watchdog_factor, 2.5);
}

TEST(ConfigIo, LoadsFileWithCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "/pbpl.conf";
  {
    std::ofstream out(path);
    out << "# PBPL tuning for the edge box\n"
        << "\n"
        << "cores=4          # quad core\n"
        << "  slot_size_us=2000\n"
        << "predictor=ewma\n";
  }
  std::string error;
  const auto config = load_config_file(path, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->cores, 4u);
  EXPECT_EQ(config->slot_size, milliseconds(2));
  EXPECT_EQ(config->predictor, PredictorKind::Ewma);
  std::remove(path.c_str());
}

TEST(ConfigIo, FileErrorsCarryLineNumbers) {
  const std::string path = ::testing::TempDir() + "/bad.conf";
  {
    std::ofstream out(path);
    out << "cores=2\nbroken line here\n";
  }
  std::string error;
  EXPECT_FALSE(load_config_file(path, &error).has_value());
  EXPECT_NE(error.find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ConfigIo, MissingFileFails) {
  std::string error;
  EXPECT_FALSE(load_config_file("/nonexistent/pbpl.conf", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace pcpc::core
