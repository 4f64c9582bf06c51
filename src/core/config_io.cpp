#include "pcpc/core/config_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

namespace pcpc::core {

namespace {

bool parse_u64(const std::string& value, std::uint64_t& out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_double(const std::string& value, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(value, &used);
    return used == value.size();
  } catch (...) {
    return false;
  }
}

bool parse_bool(const std::string& value, bool& out) {
  if (value == "1" || value == "true" || value == "on") {
    out = true;
    return true;
  }
  if (value == "0" || value == "false" || value == "off") {
    out = false;
    return true;
  }
  return false;
}

bool parse_duration_us(const std::string& value, SimDuration& out) {
  double us = 0.0;
  if (!parse_double(value, us) || us < 0.0) return false;
  out = static_cast<SimDuration>(us * 1000.0);
  return true;
}

void fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

bool apply_option(PbplConfig& config, const std::string& assignment, std::string* error) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0) {
    fail(error, "expected key=value, got '" + assignment + "'");
    return false;
  }
  const std::string key = assignment.substr(0, eq);
  const std::string value = assignment.substr(eq + 1);

  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  SimDuration duration = 0;

  if (key == "cores") {
    if (!parse_u64(value, u) || u == 0) return fail(error, "cores needs a positive integer"), false;
    config.cores = u;
  } else if (key == "slot_size_us") {
    if (!parse_duration_us(value, duration)) return fail(error, "bad slot_size_us"), false;
    config.slot_size = duration;
  } else if (key == "max_latency_us") {
    if (!parse_duration_us(value, duration) || duration <= 0)
      return fail(error, "bad max_latency_us"), false;
    config.max_latency = duration;
  } else if (key == "base_buffer") {
    if (!parse_u64(value, u) || u == 0) return fail(error, "bad base_buffer"), false;
    config.base_buffer = u;
  } else if (key == "pool_segment") {
    if (!parse_u64(value, u) || u == 0) return fail(error, "bad pool_segment"), false;
    config.pool_segment = u;
  } else if (key == "predictor") {
    if (value == "ma") config.predictor = PredictorKind::MovingAverage;
    else if (value == "kalman") config.predictor = PredictorKind::Kalman;
    else if (value == "ewma") config.predictor = PredictorKind::Ewma;
    else return fail(error, "predictor must be ma|kalman|ewma"), false;
  } else if (key == "predictor_window") {
    if (!parse_u64(value, u) || u == 0) return fail(error, "bad predictor_window"), false;
    config.predictor_window = u;
  } else if (key == "latching") {
    if (!parse_bool(value, b)) return fail(error, "bad latching"), false;
    config.latching = b;
  } else if (key == "dynamic_resize") {
    if (!parse_bool(value, b)) return fail(error, "bad dynamic_resize"), false;
    config.dynamic_resize = b;
  } else if (key == "emergency_borrow") {
    if (!parse_bool(value, b)) return fail(error, "bad emergency_borrow"), false;
    config.emergency_borrow = b;
  } else if (key == "overflow_policy") {
    if (value == "block") config.overflow_policy = OverflowPolicy::Block;
    else if (value == "drop_oldest") config.overflow_policy = OverflowPolicy::DropOldest;
    else if (value == "drop_newest") config.overflow_policy = OverflowPolicy::DropNewest;
    else return fail(error, "overflow_policy must be block|drop_oldest|drop_newest"), false;
  } else if (key == "queue_backend") {
    const auto kind = queue::parse_backend(value);
    if (!kind.has_value())
      return fail(error, "queue_backend must be mutex|spsc|mpsc"), false;
    config.queue_backend = *kind;
  } else if (key == "payload_max_bytes") {
    if (!parse_u64(value, u) || u > (std::uint64_t{1} << 30))
      return fail(error, "bad payload_max_bytes"), false;
    config.payload_max_bytes = static_cast<std::uint32_t>(u);
  } else if (key == "watchdog_factor") {
    if (!parse_double(value, d) || d < 0.0) return fail(error, "watchdog_factor >= 0"), false;
    config.watchdog_factor = d;
  } else if (key == "latency_guard") {
    if (!parse_bool(value, b)) return fail(error, "bad latency_guard"), false;
    config.latency_guard = b;
  } else if (key == "fill_tolerance") {
    if (!parse_double(value, d) || d < 1.0) return fail(error, "fill_tolerance >= 1"), false;
    config.fill_tolerance = d;
  } else if (key == "resize_headroom") {
    if (!parse_double(value, d) || d < 1.0) return fail(error, "resize_headroom >= 1"), false;
    config.resize_headroom = d;
  } else if (key == "manager_overhead_us") {
    if (!parse_duration_us(value, duration)) return fail(error, "bad manager_overhead_us"), false;
    config.manager_overhead = duration;
  } else if (key == "assignment") {
    if (value == "rr") config.assignment = AssignmentPolicy::RoundRobin;
    else if (value == "packed") config.assignment = AssignmentPolicy::Packed;
    else if (value == "balanced") config.assignment = AssignmentPolicy::RateBalanced;
    else return fail(error, "assignment must be rr|packed|balanced"), false;
  } else if (key == "utilization_cap") {
    if (!parse_double(value, d) || d <= 0.0) return fail(error, "bad utilization_cap"), false;
    config.utilization_cap = d;
  } else if (key == "service_per_item_us") {
    if (!parse_duration_us(value, duration)) return fail(error, "bad service_per_item_us"), false;
    config.service.per_item = duration;
  } else if (key == "service_per_invocation_us") {
    if (!parse_duration_us(value, duration))
      return fail(error, "bad service_per_invocation_us"), false;
    config.service.per_invocation = duration;
  } else if (key == "wakeup_cost_uj") {
    if (!parse_double(value, d) || d < 0.0) return fail(error, "bad wakeup_cost_uj"), false;
    config.costs.wakeup_j = d * 1e-6;
  } else if (key == "per_item_cost_uj") {
    if (!parse_double(value, d) || d < 0.0) return fail(error, "bad per_item_cost_uj"), false;
    config.costs.per_item_j = d * 1e-6;
  } else if (key == "per_invocation_cost_uj") {
    if (!parse_double(value, d) || d < 0.0)
      return fail(error, "bad per_invocation_cost_uj"), false;
    config.costs.per_invocation_j = d * 1e-6;
  } else {
    fail(error, "unknown key '" + key + "'");
    return false;
  }
  return true;
}

bool apply_options(PbplConfig& config, std::span<const std::string> assignments,
                   std::string* error) {
  for (const auto& assignment : assignments) {
    if (!apply_option(config, assignment, error)) return false;
  }
  return true;
}

std::optional<PbplConfig> load_config_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    fail(error, "cannot open '" + path + "'");
    return std::nullopt;
  }
  PbplConfig config;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string trimmed = line.substr(first, last - first + 1);
    std::string inner;
    if (!apply_option(config, trimmed, &inner)) {
      fail(error, path + ":" + std::to_string(line_no) + ": " + inner);
      return std::nullopt;
    }
  }
  return config;
}

std::string describe(const PbplConfig& config) {
  std::ostringstream os;
  os << "cores=" << config.cores << '\n'
     << "slot_size_us=" << config.slot_size / 1000 << '\n'
     << "max_latency_us=" << config.max_latency / 1000 << '\n'
     << "base_buffer=" << config.base_buffer << '\n'
     << "pool_segment=" << config.pool_segment << '\n'
     << "predictor="
     << (config.predictor == PredictorKind::MovingAverage
             ? "ma"
             : (config.predictor == PredictorKind::Kalman ? "kalman" : "ewma"))
     << '\n'
     << "predictor_window=" << config.predictor_window << '\n'
     << "latching=" << (config.latching ? 1 : 0) << '\n'
     << "dynamic_resize=" << (config.dynamic_resize ? 1 : 0) << '\n'
     << "emergency_borrow=" << (config.emergency_borrow ? 1 : 0) << '\n'
     << "overflow_policy="
     << (config.overflow_policy == OverflowPolicy::Block
             ? "block"
             : (config.overflow_policy == OverflowPolicy::DropOldest ? "drop_oldest"
                                                                      : "drop_newest"))
     << '\n'
     << "queue_backend=" << queue::backend_name(config.queue_backend) << '\n'
     << "payload_max_bytes=" << config.payload_max_bytes << '\n'
     << "watchdog_factor=" << config.watchdog_factor << '\n'
     << "latency_guard=" << (config.latency_guard ? 1 : 0) << '\n'
     << "fill_tolerance=" << config.fill_tolerance << '\n'
     << "resize_headroom=" << config.resize_headroom << '\n'
     << "manager_overhead_us=" << config.manager_overhead / 1000 << '\n'
     << "assignment="
     << (config.assignment == AssignmentPolicy::RoundRobin
             ? "rr"
             : (config.assignment == AssignmentPolicy::Packed ? "packed" : "balanced"))
     << '\n'
     << "utilization_cap=" << config.utilization_cap << '\n'
     << "service_per_item_us=" << config.service.per_item / 1000 << '\n'
     << "service_per_invocation_us=" << config.service.per_invocation / 1000 << '\n'
     << "wakeup_cost_uj=" << config.costs.wakeup_j * 1e6 << '\n'
     << "per_item_cost_uj=" << config.costs.per_item_j * 1e6 << '\n'
     << "per_invocation_cost_uj=" << config.costs.per_invocation_j * 1e6 << '\n';
  return os.str();
}

}  // namespace pcpc::core
