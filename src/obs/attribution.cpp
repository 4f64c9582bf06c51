#include "pcpc/obs/attribution.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

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

void write_histogram_json(std::ostream& out, const StageHistogram& h) {
  out << "{\"count\":" << h.count << ",\"min_ns\":" << h.min_ns
      << ",\"max_ns\":" << h.max_ns << ",\"log2_bins\":[";
  std::size_t last = 0;
  for (std::size_t b = 0; b < h.bins.size(); ++b) {
    if (h.bins[b] != 0) last = b + 1;
  }
  for (std::size_t b = 0; b < last; ++b) {
    if (b > 0) out << ',';
    out << h.bins[b];
  }
  out << "]}";
}

}  // namespace

void write_slo_report(std::ostream& out, const AttributionReport& report) {
  out << "{\"delta_ns\":" << report.delta_ns;
  out << ",\"totals\":{\"items\":" << report.items << ",\"drops\":" << report.drops
      << ",\"produced\":" << report.produced << ",\"paid_wakes\":" << report.paid
      << ",\"free_wakes\":" << report.free << ",\"joules\":" << report.joules
      << ",\"joules_per_item\":" << report.joules_per_item
      << ",\"joules_per_paid_wake\":" << report.joules_per_paid_wake
      << ",\"items_per_paid_wake\":" << report.items_per_paid_wake
      << ",\"slo_samples\":" << report.slo_samples
      << ",\"slo_violations\":" << report.slo_violations << '}';

  if (report.payload_bytes > 0) {
    out << ",\"payload\":{\"records\":" << report.payload_records
        << ",\"bytes\":" << report.payload_bytes
        << ",\"bytes_per_s\":" << report.payload_bytes_per_s
        << ",\"joules_per_mb\":" << report.joules_per_mb << '}';
  }

  out << ",\"spans\":{\"stage_events\":" << report.spans.stage_events
      << ",\"sampled_items\":" << report.spans.items.size()
      << ",\"complete_items\":" << report.spans.complete_items
      << ",\"orphan_stages\":" << report.spans.orphan_stages
      << ",\"joined_wakes\":" << report.spans.joined_wakes
      << ",\"joined_paid_wakes\":" << report.spans.joined_paid_wakes;
  out << ",\"produce_to_enqueue\":";
  write_histogram_json(out, report.spans.produce_to_enqueue);
  out << ",\"enqueue_to_drain\":";
  write_histogram_json(out, report.spans.enqueue_to_drain);
  out << ",\"wake_to_drain\":";
  write_histogram_json(out, report.spans.wake_to_drain);
  out << ",\"drain_to_done\":";
  write_histogram_json(out, report.spans.drain_to_done);
  out << ",\"end_to_end\":";
  write_histogram_json(out, report.spans.end_to_end);
  out << '}';

  out << ",\"pairs\":[";
  for (std::size_t i = 0; i < report.pairs.size(); ++i) {
    const PairAttribution& row = report.pairs[i];
    if (i > 0) out << ',';
    out << "{\"pair\":" << row.pair << ",\"items\":" << row.items
        << ",\"batches\":" << row.batches << ",\"drops\":" << row.drops
        << ",\"paid_wakes\":" << row.paid << ",\"free_wakes\":" << row.free
        << ",\"joules\":" << row.joules
        << ",\"joules_per_item\":" << row.joules_per_item
        << ",\"joules_per_paid_wake\":" << row.joules_per_paid_wake
        << ",\"items_per_paid_wake\":" << row.items_per_paid_wake
        << ",\"slo\":{\"samples\":" << row.slo_samples
        << ",\"violations\":" << row.slo_violations << ",\"slack\":";
    write_histogram_json(out, row.slack);
    out << ",\"overrun\":";
    write_histogram_json(out, row.overrun);
    out << "}}";
  }
  out << "],\"cores\":[";
  for (std::size_t i = 0; i < report.cores.size(); ++i) {
    const CoreAttribution& row = report.cores[i];
    if (i > 0) out << ',';
    out << "{\"core\":" << row.core << ",\"items\":" << row.items
        << ",\"batches\":" << row.batches << ",\"paid_wakes\":" << row.paid
        << ",\"free_wakes\":" << row.free << ",\"joules\":" << row.joules
        << ",\"joules_per_item\":" << row.joules_per_item
        << ",\"items_per_paid_wake\":" << row.items_per_paid_wake << '}';
  }
  out << "]}";
}

bool write_slo_report(const std::string& path, const AttributionReport& report,
                      std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  write_slo_report(out, report);
  out << '\n';
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace pcpc::obs
