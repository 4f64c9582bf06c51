#include "pcpc/obs/exporters.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

namespace pcpc::obs {

namespace {

/// Microsecond timestamp for the Chrome trace format.
double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

void write_event_args(JsonWriter& json, const Event& e) {
  const std::int64_t slot = e.arg0 == kNoSlot ? -1 : e.arg0;
  json.begin_object().key("consumer");
  json.value(e.consumer == kNoConsumer ? -1 : static_cast<std::int64_t>(e.consumer));
  switch (e.kind) {
    case EventKind::kWakeup:
      json.key("slot").value(slot).key("paid").value(e.paid() ? 1 : 0);
      json.key("scheduled").value(e.scheduled() ? 1 : 0);
      break;
    case EventKind::kSlotBatch: json.key("slot").value(slot).key("batch").value(e.arg1); break;
    case EventKind::kReservation:
      json.key("slot").value(e.arg0).key("latched").value(e.arg1);
      break;
    case EventKind::kOverflow:
      json.key("action").value(overflow_action_name(static_cast<OverflowAction>(e.arg0)));
      break;
    case EventKind::kWatchdog: json.key("overrun_ns").value(e.arg0); break;
    case EventKind::kFault:
      json.key("fault").value(fault_kind_name(static_cast<FaultKind>(e.arg0)));
      json.key("magnitude").value(e.arg1);
      break;
    case EventKind::kDrop:
      json.key("path").value(drop_path_name(static_cast<DropPath>(e.arg0)));
      break;
    case EventKind::kQueueResize:
      json.key("old_slots").value(e.arg0).key("new_slots").value(e.arg1);
      break;
    case EventKind::kItemStage:
      json.key("item").value(e.arg0);
      json.key("stage").value(item_stage_name(static_cast<ItemStage>(e.arg1)));
      break;
    case EventKind::kFleet:
      json.key("action").value(fleet_action_name(static_cast<FleetAction>(e.arg0)));
      json.key("to_core").value(e.arg1);
      break;
  }
  json.end_object();
}

/// Display name of one trace event, e.g. "wakeup paid c2".
std::string event_display_name(const Event& e) {
  std::string name = event_kind_name(e.kind);
  if (e.kind == EventKind::kWakeup) name += e.paid() ? " paid" : " free";
  if (e.kind == EventKind::kItemStage) {
    name += std::string(" ") + item_stage_name(static_cast<ItemStage>(e.arg1));
  }
  if (e.kind == EventKind::kFleet) {
    name += std::string(" ") + fleet_action_name(static_cast<FleetAction>(e.arg0));
  }
  if (e.consumer != kNoConsumer) name += " c" + std::to_string(e.consumer);
  return name;
}

/// Perfetto pid of an event: origins map to distinct process tracks in
/// the merged cross-process trace (origin 0 = the exporting process,
/// origin k = ipc producer registry slot k-1's process).
int event_pid(const Event& e) { return 1 + e.origin; }

/// One slice (with `dur_ns`) or instant (without) and its attribution.
void write_event(JsonWriter& json, const Event& e, const char* cat,
                 std::optional<std::int64_t> dur_ns) {
  json.begin_object().key("name").value(event_display_name(e)).key("cat").value(cat);
  json.key("pid").value(event_pid(e)).key("tid").value(e.core + 1);
  json.key("ts").value(to_us(e.ts_ns));
  if (dur_ns) {
    json.key("ph").value("X").key("dur").value(to_us(*dur_ns));
  } else {
    json.key("ph").value("i").key("s").value("t");
  }
  write_event_args(json.key("args"), e);
  json.end_object();
}

void write_ledger_json(JsonWriter& json, const WakeupLedger::Snapshot& ledger) {
  const WakeupLedger::Attribution wakes = ledger.wakeups();
  json.begin_object().key("paid").value(wakes.paid).key("free").value(wakes.free);
  const auto rows = [&json](const char* name, const char* index, const auto& table) {
    json.key(name).begin_array();
    for (std::size_t i = 0; i < table.size(); ++i) {
      json.begin_object().key(index).value(i).key("paid").value(table[i].paid);
      json.key("free").value(table[i].free).end_object();
    }
    json.end_array();
  };
  rows("per_consumer", "consumer", ledger.per_consumer);
  rows("per_core", "core", ledger.per_core);
  json.end_object();
}

}  // namespace

void write_log2_bins(JsonWriter& json, std::span<const std::uint64_t> bins) {
  std::size_t last = 0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    if (bins[b] != 0) last = b + 1;
  }
  json.begin_array();
  for (std::size_t b = 0; b < last; ++b) json.value(bins[b]);
  json.end_array();
}

void write_perfetto_trace(std::ostream& out, Session& session) {
  const std::vector<Event> events = session.events();
  JsonWriter json(out);
  json.begin_object().key("displayTimeUnit").value("ms").key("traceEvents").begin_array();

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
  const auto metadata = [&json](int pid, int tid, const char* kind, const std::string& name) {
    json.begin_object().key("ph").value("M").key("pid").value(pid).key("tid").value(tid);
    json.key("name").value(kind).key("args").begin_object().key("name").value(name);
    json.end_object().end_object();
  };
  for (const auto& [origin, max_core] : origin_max_core) {
    metadata(1 + origin, 0, "process_name",
             origin == kOriginLocal ? "pcpc" : "pcpc producer " + std::to_string(origin - 1));
    for (std::uint16_t c = 0; c <= max_core; ++c) {
      metadata(1 + origin, c + 1, "thread_name", "core " + std::to_string(c));
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
    write_event(json, e, event_kind_name(e.kind),
                e.kind == EventKind::kSlotBatch ? std::optional(e.dur_ns) : std::nullopt);
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
      write_event(json, e, "item_stage", dur_ns);
      if (stages.size() < 2) continue;
      // The flow arrow binds to the slice just emitted.
      const char* ph = i == 0 ? "s" : (i + 1 == stages.size() ? "f" : "t");
      json.begin_object().key("name").value("item").key("cat").value("item_flow");
      json.key("id").value(item).key("pid").value(event_pid(e)).key("tid").value(e.core + 1);
      json.key("ts").value(to_us(e.ts_ns)).key("ph").value(ph);
      if (*ph == 'f') json.key("bp").value("e");
      json.end_object();
    }
  }

  json.end_array().key("otherData").begin_object().key("tool").value("pcpc::obs");
  json.key("events").value(events.size()).key("dropped_ring").value(session.ring_dropped());
  json.key("dropped_archive").value(session.archive_dropped()).end_object().end_object();
}

bool write_perfetto_trace(const std::string& path, Session& session,
                          std::string* error) {
  return write_file(path, error,
                    [&session](std::ostream& out) { write_perfetto_trace(out, session); });
}

void write_metrics_json(std::ostream& out, Session& session) {
  const WakeupLedger::Snapshot snapshot = session.ledger().snapshot();
  JsonWriter json(out);
  json.begin_object().key("schema").value("pcpc.metrics/1").key("counters").begin_object();
  for (const auto& counter : snapshot.counters()) json.key(counter.name).value(counter.value);
  json.end_object().key("histograms").begin_object();
  for (const auto& histogram : snapshot.histograms()) {
    json.key(histogram.name).begin_object().key("total").value(histogram.total);
    write_log2_bins(json.key("log2_bins"), *histogram.bins);
    json.end_object();
  }
  write_ledger_json(json.end_object().key("wakeups"), snapshot);
  json.key("trace").begin_object().key("recorded").value(session.total_events_recorded());
  json.key("dropped_ring").value(session.ring_dropped());
  json.key("dropped_archive").value(session.archive_dropped()).end_object().end_object();
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

bool write_metrics(const std::string& path, Session& session, std::string* error) {
  return write_file(path, error, [&](std::ostream& out) {
    path.ends_with(".csv") ? write_metrics_csv(out, session) : write_metrics_json(out, session);
  });
}

}  // namespace pcpc::obs
