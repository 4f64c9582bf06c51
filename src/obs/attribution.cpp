#include "pcpc/obs/attribution.hpp"

#include <algorithm>
#include <ostream>

#include "pcpc/obs/exporters.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::obs {

double attributed_joules(const AttributionOptions& opt, std::uint64_t paid,
                         std::uint64_t items, std::uint64_t batches) {
  const double per_item_j =
      opt.power.item_transport_energy_j +
      static_cast<double>(opt.service.per_item) * 1e-9 * opt.power.active_power_w;
  const double per_batch_j = static_cast<double>(opt.service.per_invocation) * 1e-9 *
                             opt.power.active_power_w;
  return static_cast<double>(paid) * opt.power.wakeup_energy_j +
         static_cast<double>(items) * per_item_j +
         static_cast<double>(batches) * per_batch_j;
}

namespace {

double ratio(double num, std::uint64_t den) {
  return den == 0 ? 0.0 : num / static_cast<double>(den);
}

PairAttribution& pair_row(AttributionReport& report, std::uint32_t pair) {
  for (PairAttribution& row : report.pairs) {
    if (row.pair == pair) return row;
  }
  report.pairs.emplace_back();
  report.pairs.back().pair = pair;
  return report.pairs.back();
}

}  // namespace

void finalize_attribution(AttributionReport& report, const AttributionOptions& opt) {
  report.delta_ns = opt.delta_ns;

  // SLO rows: every complete sampled span with a known pair is one
  // Δ-budget sample of that pair.
  if (opt.delta_ns > 0) {
    for (const ItemSpan& span : report.spans.items) {
      if (!span.complete() || span.pair == kNoConsumer) continue;
      PairAttribution& row = pair_row(report, span.pair);
      ++row.slo_samples;
      const std::int64_t e2e = span.end_to_end_ns();
      if (e2e > opt.delta_ns) {
        ++row.slo_violations;
        row.overrun.add(e2e - opt.delta_ns);
      } else {
        row.slack.add(opt.delta_ns - e2e);
      }
    }
  }

  report.items = report.drops = report.produced = 0;
  report.paid = report.free = 0;
  report.slo_samples = report.slo_violations = 0;
  report.joules = 0.0;
  for (PairAttribution& row : report.pairs) {
    row.joules = attributed_joules(opt, row.paid, row.items, row.batches);
    row.joules_per_item = ratio(row.joules, row.items);
    row.joules_per_paid_wake = ratio(row.joules, row.paid);
    row.items_per_paid_wake = ratio(static_cast<double>(row.items), row.paid);
    report.items += row.items;
    report.drops += row.drops;
    report.paid += row.paid;
    report.free += row.free;
    report.slo_samples += row.slo_samples;
    report.slo_violations += row.slo_violations;
    report.joules += row.joules;
  }
  report.produced = report.items + report.drops;
  report.joules_per_item = ratio(report.joules, report.items);
  report.joules_per_paid_wake = ratio(report.joules, report.paid);
  report.items_per_paid_wake = ratio(static_cast<double>(report.items), report.paid);
  for (CoreAttribution& row : report.cores) {
    row.joules = attributed_joules(opt, row.paid, row.items, row.batches);
    row.joules_per_item = ratio(row.joules, row.items);
    row.items_per_paid_wake = ratio(static_cast<double>(row.items), row.paid);
  }

  std::sort(report.pairs.begin(), report.pairs.end(),
            [](const PairAttribution& a, const PairAttribution& b) {
              return a.pair < b.pair;
            });
}

AttributionReport build_attribution(Session& session, const AttributionOptions& opt) {
  AttributionReport report;
  report.spans = fold_spans(session.events());

  const WakeupLedger::Snapshot ledger = session.ledger().snapshot();
  const auto& wakeups = ledger.per_consumer;
  const auto& work = ledger.per_consumer_work;
  const std::size_t n_pairs = std::max(wakeups.size(), work.size());
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const WakeupLedger::Attribution w =
        i < wakeups.size() ? wakeups[i] : WakeupLedger::Attribution{};
    const WakeupLedger::Work k = i < work.size() ? work[i] : WakeupLedger::Work{};
    if (w.total() == 0 && k.empty()) continue;
    PairAttribution& row = pair_row(report, static_cast<std::uint32_t>(i));
    row.paid = w.paid;
    row.free = w.free;
    row.items = k.items;
    row.batches = k.batches;
    row.drops = k.drops;
  }

  const auto& core_wakeups = ledger.per_core;
  const auto& core_work = ledger.per_core_work;
  const std::size_t n_cores = std::max(core_wakeups.size(), core_work.size());
  for (std::size_t i = 0; i < n_cores; ++i) {
    const WakeupLedger::Attribution w =
        i < core_wakeups.size() ? core_wakeups[i] : WakeupLedger::Attribution{};
    const WakeupLedger::Work k =
        i < core_work.size() ? core_work[i] : WakeupLedger::Work{};
    if (w.total() == 0 && k.empty()) continue;
    CoreAttribution row;
    row.core = static_cast<std::uint16_t>(i);
    row.paid = w.paid;
    row.free = w.free;
    row.items = k.items;
    row.batches = k.batches;
    report.cores.push_back(row);
  }

  finalize_attribution(report, opt);
  return report;
}

namespace {

/// `"name":{"count":…,"min_ns":…,"max_ns":…,"log2_bins":[…]}`.
void write_histogram(JsonWriter& json, const char* name, const StageHistogram& h) {
  json.key(name).begin_object().key("count").value(h.count).key("min_ns").value(h.min_ns);
  write_log2_bins(json.key("max_ns").value(h.max_ns).key("log2_bins"), h.bins);
  json.end_object();
}

}  // namespace

void write_slo_report(std::ostream& out, const AttributionReport& report) {
  JsonWriter json(out);
  json.begin_object().key("schema").value("pcpc.slo_report/1");
  json.key("delta_ns").value(report.delta_ns).key("totals").begin_object();
  json.key("items").value(report.items).key("drops").value(report.drops);
  json.key("produced").value(report.produced).key("paid_wakes").value(report.paid);
  json.key("free_wakes").value(report.free).key("joules").value(report.joules);
  json.key("joules_per_item").value(report.joules_per_item);
  json.key("joules_per_paid_wake").value(report.joules_per_paid_wake);
  json.key("items_per_paid_wake").value(report.items_per_paid_wake);
  json.key("slo_samples").value(report.slo_samples);
  json.key("slo_violations").value(report.slo_violations).end_object();
  if (report.payload_bytes > 0) {
    json.key("payload").begin_object().key("records").value(report.payload_records);
    json.key("bytes").value(report.payload_bytes);
    json.key("bytes_per_s").value(report.payload_bytes_per_s);
    json.key("joules_per_mb").value(report.joules_per_mb).end_object();
  }

  const SpanFold& spans = report.spans;
  json.key("spans").begin_object().key("stage_events").value(spans.stage_events);
  json.key("sampled_items").value(spans.items.size());
  json.key("complete_items").value(spans.complete_items);
  json.key("orphan_stages").value(spans.orphan_stages);
  json.key("joined_wakes").value(spans.joined_wakes);
  json.key("joined_paid_wakes").value(spans.joined_paid_wakes);
  write_histogram(json, "produce_to_enqueue", spans.produce_to_enqueue);
  write_histogram(json, "enqueue_to_drain", spans.enqueue_to_drain);
  write_histogram(json, "wake_to_drain", spans.wake_to_drain);
  write_histogram(json, "drain_to_done", spans.drain_to_done);
  write_histogram(json, "end_to_end", spans.end_to_end);

  json.end_object().key("pairs").begin_array();
  for (const PairAttribution& row : report.pairs) {
    json.begin_object().key("pair").value(row.pair).key("items").value(row.items);
    json.key("batches").value(row.batches).key("drops").value(row.drops);
    json.key("paid_wakes").value(row.paid).key("free_wakes").value(row.free);
    json.key("joules").value(row.joules).key("joules_per_item").value(row.joules_per_item);
    json.key("joules_per_paid_wake").value(row.joules_per_paid_wake);
    json.key("items_per_paid_wake").value(row.items_per_paid_wake);
    json.key("slo").begin_object().key("samples").value(row.slo_samples);
    json.key("violations").value(row.slo_violations);
    write_histogram(json, "slack", row.slack);
    write_histogram(json, "overrun", row.overrun);
    json.end_object().end_object();
  }
  json.end_array().key("cores").begin_array();
  for (const CoreAttribution& row : report.cores) {
    json.begin_object().key("core").value(row.core).key("items").value(row.items);
    json.key("batches").value(row.batches).key("paid_wakes").value(row.paid);
    json.key("free_wakes").value(row.free).key("joules").value(row.joules);
    json.key("joules_per_item").value(row.joules_per_item);
    json.key("items_per_paid_wake").value(row.items_per_paid_wake).end_object();
  }
  json.end_array().end_object();
}

bool write_slo_report(const std::string& path, const AttributionReport& report,
                      std::string* error) {
  return write_file(path, error,
                    [&report](std::ostream& out) { write_slo_report(out, report); });
}

}  // namespace pcpc::obs
