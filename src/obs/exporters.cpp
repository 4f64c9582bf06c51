#include "pcpc/obs/exporters.hpp"

#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

namespace pcpc::obs {

namespace {

/// Minimal JSON string escaping (event names and labels are ASCII, but
/// never trust a name you didn't write).
std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microsecond timestamp for the Chrome trace format.
double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

void write_event_args(std::ostream& out, const Event& e) {
  out << "{\"consumer\":" << static_cast<std::int64_t>(
             e.consumer == kNoConsumer ? -1 : static_cast<std::int64_t>(e.consumer));
  switch (e.kind) {
    case EventKind::kWakeup:
      out << ",\"slot\":" << (e.arg0 == kNoSlot ? -1 : e.arg0)
          << ",\"paid\":" << (e.paid() ? 1 : 0)
          << ",\"scheduled\":" << (e.scheduled() ? 1 : 0);
      break;
    case EventKind::kSlotBatch:
      out << ",\"slot\":" << (e.arg0 == kNoSlot ? -1 : e.arg0)
          << ",\"batch\":" << e.arg1;
      break;
    case EventKind::kReservation:
      out << ",\"slot\":" << e.arg0 << ",\"latched\":" << e.arg1;
      break;
    case EventKind::kOverflow:
      out << ",\"action\":\""
          << overflow_action_name(static_cast<OverflowAction>(e.arg0)) << '"';
      break;
    case EventKind::kWatchdog:
      out << ",\"overrun_ns\":" << e.arg0;
      break;
    case EventKind::kFault:
      out << ",\"fault\":\"" << fault_kind_name(static_cast<FaultKind>(e.arg0))
          << "\",\"magnitude\":" << e.arg1;
      break;
    case EventKind::kDrop:
      out << ",\"path\":\"" << drop_path_name(static_cast<DropPath>(e.arg0)) << '"';
      break;
    case EventKind::kQueueResize:
      out << ",\"old_slots\":" << e.arg0 << ",\"new_slots\":" << e.arg1;
      break;
    case EventKind::kItemStage:
      out << ",\"item\":" << e.arg0 << ",\"stage\":\""
          << item_stage_name(static_cast<ItemStage>(e.arg1)) << '"';
      break;
    case EventKind::kFleet:
      out << ",\"action\":\"" << fleet_action_name(static_cast<FleetAction>(e.arg0))
          << "\",\"to_core\":" << e.arg1;
      break;
  }
  out << '}';
}

/// Display name of one trace event, e.g. "wakeup paid c2".
std::string event_display_name(const Event& e) {
  std::ostringstream name;
  name << event_kind_name(e.kind);
  if (e.kind == EventKind::kWakeup) name << (e.paid() ? " paid" : " free");
  if (e.kind == EventKind::kItemStage) {
    name << ' ' << item_stage_name(static_cast<ItemStage>(e.arg1));
  }
  if (e.kind == EventKind::kFleet) {
    name << ' ' << fleet_action_name(static_cast<FleetAction>(e.arg0));
  }
  if (e.consumer != kNoConsumer) name << " c" << e.consumer;
  return name.str();
}

/// Perfetto pid of an event: origins map to distinct process tracks in
/// the merged cross-process trace (origin 0 = the exporting process,
/// origin k = ipc producer registry slot k-1's process).
int event_pid(const Event& e) { return 1 + e.origin; }

template <typename WriteFn>
bool write_file(const std::string& path, std::string* error, WriteFn&& fn) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  fn(out);
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

void write_ledger_json(std::ostream& out, const WakeupLedger::Snapshot& ledger) {
  const WakeupLedger::Attribution wakes = ledger.wakeups();
  out << "{\"paid\":" << wakes.paid << ",\"free\":" << wakes.free;
  out << ",\"per_consumer\":[";
  const auto& consumers = ledger.per_consumer;
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"consumer\":" << i << ",\"paid\":" << consumers[i].paid
        << ",\"free\":" << consumers[i].free << '}';
  }
  out << "],\"per_core\":[";
  const auto& cores = ledger.per_core;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"core\":" << i << ",\"paid\":" << cores[i].paid
        << ",\"free\":" << cores[i].free << '}';
  }
  out << "]}";
}

}  // namespace

void write_perfetto_trace(std::ostream& out, Session& session) {
  const std::vector<Event> events = session.events();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << std::setprecision(15);

  // Process/track metadata: one Perfetto "process" per event origin
  // (this process + each merged ipc producer), one "thread" per core
  // within it, so a merged cross-process trace renders each process's
  // cores as separate lanes.  All origins share the segment-epoch clock
  // domain, so no per-track offset is needed.
  std::map<std::uint16_t, std::uint16_t> origin_max_core;
  for (const Event& e : events) {
    auto [it, fresh] = origin_max_core.try_emplace(e.origin, e.core);
    if (!fresh) it->second = std::max(it->second, e.core);
  }
  if (origin_max_core.empty()) origin_max_core[kOriginLocal] = 0;
  bool first = true;
  for (const auto& [origin, max_core] : origin_max_core) {
    if (!first) out << ',';
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << (1 + origin)
        << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"";
    if (origin == kOriginLocal) {
      out << "pcpc";
    } else {
      out << "pcpc producer " << (origin - 1);
    }
    out << "\"}}";
    for (std::uint16_t c = 0; c <= max_core; ++c) {
      out << ",{\"ph\":\"M\",\"pid\":" << (1 + origin) << ",\"tid\":" << (c + 1)
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"core " << c << "\"}}";
    }
  }

  // Sampled lifecycle spans become flow-connected slices: each stage is
  // a slice lasting until the item's next stage on the same track, and a
  // flow (cat "item_flow", id = item id) threads the stages across
  // process/core tracks.  Group stage events by item id first.
  std::map<std::int64_t, std::vector<std::size_t>> span_stages;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kItemStage) {
      span_stages[events[i].arg0].push_back(i);
    }
  }

  for (const Event& e : events) {
    if (e.kind == EventKind::kItemStage) continue;  // emitted with their flow below
    out << ",{\"name\":\"" << json_escape(event_display_name(e)) << "\",\"cat\":\""
        << event_kind_name(e.kind) << "\",\"pid\":" << event_pid(e)
        << ",\"tid\":" << (e.core + 1) << ",\"ts\":" << to_us(e.ts_ns);
    if (e.kind == EventKind::kSlotBatch) {
      out << ",\"ph\":\"X\",\"dur\":" << to_us(e.dur_ns);
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out << ",\"args\":";
    write_event_args(out, e);
    out << '}';
  }

  for (const auto& [item, stages] : span_stages) {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const Event& e = events[stages[i]];
      // Slice until the item's next stage on the same track (produce →
      // enqueue on the producer, drain-start → handler-done on the
      // consumer); terminal stages get a minimal visible width.
      std::int64_t dur_ns = 1000;
      if (i + 1 < stages.size()) {
        const Event& next = events[stages[i + 1]];
        if (next.origin == e.origin && next.core == e.core) {
          dur_ns = std::max<std::int64_t>(next.ts_ns - e.ts_ns, 0);
        }
      }
      out << ",{\"name\":\"" << json_escape(event_display_name(e))
          << "\",\"cat\":\"item_stage\",\"pid\":" << event_pid(e)
          << ",\"tid\":" << (e.core + 1) << ",\"ts\":" << to_us(e.ts_ns)
          << ",\"ph\":\"X\",\"dur\":" << to_us(dur_ns) << ",\"args\":";
      write_event_args(out, e);
      out << '}';
      if (stages.size() < 2) continue;
      // The flow arrow binds to the slice just emitted.
      const char* ph = i == 0 ? "s" : (i + 1 == stages.size() ? "f" : "t");
      out << ",{\"name\":\"item\",\"cat\":\"item_flow\",\"id\":" << item
          << ",\"pid\":" << event_pid(e) << ",\"tid\":" << (e.core + 1)
          << ",\"ts\":" << to_us(e.ts_ns) << ",\"ph\":\"" << ph << '"';
      if (*ph == 'f') out << ",\"bp\":\"e\"";
      out << '}';
    }
  }

  out << "],\"otherData\":{\"tool\":\"pcpc::obs\",\"events\":" << events.size()
      << ",\"dropped_ring\":" << session.ring_dropped()
      << ",\"dropped_archive\":" << session.archive_dropped() << "}}";
}

bool write_perfetto_trace(const std::string& path, Session& session,
                          std::string* error) {
  return write_file(path, error,
                    [&session](std::ostream& out) { write_perfetto_trace(out, session); });
}

void write_metrics_json(std::ostream& out, Session& session) {
  const WakeupLedger::Snapshot snapshot = session.ledger().snapshot();
  const auto counters = snapshot.counters();
  out << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << counters[i].name << "\":" << counters[i].value;
  }
  out << "},\"histograms\":{";
  const auto histograms = snapshot.histograms();
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const WakeupLedger::Bins& bins = *histograms[i].bins;
    if (i > 0) out << ',';
    out << '"' << histograms[i].name << "\":{\"total\":" << histograms[i].total
        << ",\"log2_bins\":[";
    // Trailing zero bins are elided; the bin index is implicit.
    std::size_t last = 0;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b] != 0) last = b + 1;
    }
    for (std::size_t b = 0; b < last; ++b) {
      if (b > 0) out << ',';
      out << bins[b];
    }
    out << "]}";
  }
  out << "},\"wakeups\":";
  write_ledger_json(out, snapshot);
  out << ",\"trace\":{\"recorded\":" << session.total_events_recorded()
      << ",\"dropped_ring\":" << session.ring_dropped()
      << ",\"dropped_archive\":" << session.archive_dropped() << "}}";
}

bool write_metrics_json(const std::string& path, Session& session, std::string* error) {
  return write_file(path, error,
                    [&session](std::ostream& out) { write_metrics_json(out, session); });
}

void write_metrics_csv(std::ostream& out, Session& session) {
  const WakeupLedger::Snapshot snapshot = session.ledger().snapshot();
  out << "metric,kind,value\n";
  for (const auto& c : snapshot.counters()) {
    out << c.name << ",counter," << c.value << '\n';
  }
  for (const auto& h : snapshot.histograms()) {
    out << h.name << ".count,histogram," << h.total << '\n';
  }
  const WakeupLedger::Attribution wakes = snapshot.wakeups();
  out << "wakeups.ledger.paid,counter," << wakes.paid << '\n';
  out << "wakeups.ledger.free,counter," << wakes.free << '\n';
  const auto& consumers = snapshot.per_consumer;
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    out << "wakeups.consumer." << i << ".paid,counter," << consumers[i].paid << '\n';
    out << "wakeups.consumer." << i << ".free,counter," << consumers[i].free << '\n';
  }
  out << "trace.recorded,counter," << session.total_events_recorded() << '\n';
  out << "trace.dropped_ring,counter," << session.ring_dropped() << '\n';
  out << "trace.dropped_archive,counter," << session.archive_dropped() << '\n';
}

bool write_metrics_csv(const std::string& path, Session& session, std::string* error) {
  return write_file(path, error,
                    [&session](std::ostream& out) { write_metrics_csv(out, session); });
}

}  // namespace pcpc::obs
