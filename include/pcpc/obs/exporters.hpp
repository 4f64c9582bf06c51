// Exporters: Chrome/Perfetto trace JSON, metrics JSON/CSV.
//
// The trace exporter writes the legacy Chrome trace-event format, which
// ui.perfetto.dev (and chrome://tracing) load directly: cores become
// tracks (tid), slot batches become duration events, and wakeups /
// reservations / faults / drops become instant events carrying their
// attribution in args.  The metrics exporters write one merged snapshot
// of the wakeup ledger (its named counters, its batch histograms and its
// paid/free rows) and the trace drop accounting as one document —
// Σ w(τ) from Section IV is the "wakeups.paid" field.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>

#include "pcpc/common/json.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::obs {

/// Writes the session's archived events as Perfetto-loadable JSON.
void write_perfetto_trace(std::ostream& out, Session& session);

/// File variant; returns false (with *error set) on I/O failure.
bool write_perfetto_trace(const std::string& path, Session& session,
                          std::string* error = nullptr);

/// Writes counters, histograms, the wakeup ledger and trace drop
/// accounting as one JSON object, schema pcpc.metrics/1.
void write_metrics_json(std::ostream& out, Session& session);

/// Flat `metric,kind,value` CSV of the same data.
void write_metrics_csv(std::ostream& out, Session& session);

/// File variant of both, by name: `.csv` -> CSV, else JSON.
bool write_metrics(const std::string& path, Session& session,
                   std::string* error = nullptr);

/// A log2 histogram as a JSON array, trailing zero bins elided (the bin
/// index stays implicit); the metrics and SLO histograms both use it.
void write_log2_bins(JsonWriter& json, std::span<const std::uint64_t> bins);

}  // namespace pcpc::obs
