// wakeup→energy attribution and per-pair SLO accounting.
//
// Joins three sources the obs layer already collects — the wakeup
// ledger's paid/free counts, its per-pair/per-core work accounting
// (items, batches, drops), and the sampled lifecycle spans — with
// pcpc::power's calibrated energy model into the paper's decision
// quantities: joules/item, joules/paid-wake and items/paid-wake per
// pair and per core, plus Δ-budget compliance per pair (violation
// counts and log-binned slack/overrun histograms from the sampled
// end-to-end latencies).
//
// Identities the test suite pins:
//   - Σ_pairs items == ledger items total == the host's conservation
//     total (produced == items + dropped);
//   - Σ_pairs paid + Σ_pairs free == ledger wakeup totals (pair rows are
//     the ledger rows, not a re-count);
//   - the energy join is a pure function of those counts, so the same
//     identities hold for the joules columns.
//
// This is the machine-readable input ROADMAP item 1's autoscaler and
// item 3's admission control consume (--slo-report=FILE on pcpc_cli).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "pcpc/obs/spans.hpp"
#include "pcpc/obs/wakeup_ledger.hpp"
#include "pcpc/power/energy_ledger.hpp"

namespace pcpc::obs {

class Session;

/// Inputs of the energy join + SLO accounting.
struct AttributionOptions {
  power::PowerModelParams power;  ///< ω, active watts, transport J/item
  power::ServiceModel service;    ///< per-item / per-invocation CPU time
  std::int64_t delta_ns = 0;      ///< per-pair Δ budget; 0 disables SLO rows
};

/// One producer-consumer pair's attribution row.
struct PairAttribution {
  std::uint32_t pair = 0;
  std::uint64_t paid = 0;
  std::uint64_t free = 0;
  std::uint64_t items = 0;
  std::uint64_t batches = 0;
  std::uint64_t drops = 0;
  double joules = 0.0;
  double joules_per_item = 0.0;
  double joules_per_paid_wake = 0.0;
  double items_per_paid_wake = 0.0;
  // Δ-budget SLO accounting over the sampled spans of this pair.
  std::uint64_t slo_samples = 0;
  std::uint64_t slo_violations = 0;
  StageHistogram slack;    ///< Δ - end_to_end for met samples
  StageHistogram overrun;  ///< end_to_end - Δ for violations
};

/// One core's attribution row (no SLO — budgets are per pair).
struct CoreAttribution {
  std::uint16_t core = 0;
  std::uint64_t paid = 0;
  std::uint64_t free = 0;
  std::uint64_t items = 0;
  std::uint64_t batches = 0;
  double joules = 0.0;
  double joules_per_item = 0.0;
  double items_per_paid_wake = 0.0;
};

/// The full joined report.
struct AttributionReport {
  std::int64_t delta_ns = 0;
  std::vector<PairAttribution> pairs;
  std::vector<CoreAttribution> cores;
  SpanFold spans;

  // Totals (sums of the pair rows; `produced` is the conservation total).
  std::uint64_t items = 0;
  std::uint64_t drops = 0;
  std::uint64_t produced = 0;
  std::uint64_t paid = 0;
  std::uint64_t free = 0;
  std::uint64_t slo_samples = 0;
  std::uint64_t slo_violations = 0;
  double joules = 0.0;
  double joules_per_item = 0.0;
  double joules_per_paid_wake = 0.0;
  double items_per_paid_wake = 0.0;

  // Varlen payload plane (filled by hosts that ran record traffic;
  // payload_bytes == 0 leaves the section out of the report).  Energy
  // density is the host's attributed joules over the payload megabytes
  // actually delivered.
  std::uint64_t payload_records = 0;
  std::uint64_t payload_bytes = 0;
  double payload_bytes_per_s = 0.0;
  double joules_per_mb = 0.0;
};

/// Energy of one row under the model: paid wakeups at ω each, items at
/// transport + per-item active CPU, invocations at per-invocation active
/// CPU.  Pure — the identities above follow from the counts.
double attributed_joules(const AttributionOptions& opt, std::uint64_t paid,
                         std::uint64_t items, std::uint64_t batches);

/// Computes the energy columns, SLO rows (from `report.spans`) and the
/// totals for rows already filled in.  Used directly by hosts (the ipc
/// path) that assemble pair rows from shm telemetry instead of a ledger.
void finalize_attribution(AttributionReport& report, const AttributionOptions& opt);

/// Builds the whole report off the installed session: ledger rows,
/// span fold of Session::events(), energy join, SLO accounting.
AttributionReport build_attribution(Session& session, const AttributionOptions& opt);

/// Writes the machine-readable report: one JSON object, pcpc.slo_report/1.
void write_slo_report(std::ostream& out, const AttributionReport& report);

/// File variant (pcpc::write_file); false + `*error` on I/O failure.
bool write_slo_report(const std::string& path, const AttributionReport& report,
                      std::string* error = nullptr);

}  // namespace pcpc::obs
