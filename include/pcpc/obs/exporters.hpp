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

#include <ostream>
#include <string>

#include "pcpc/obs/obs.hpp"

namespace pcpc::obs {

/// Writes the session's archived events as Perfetto-loadable JSON.
void write_perfetto_trace(std::ostream& out, Session& session);

/// File variant; returns false (with *error set) on I/O failure.
bool write_perfetto_trace(const std::string& path, Session& session,
                          std::string* error = nullptr);

/// Writes counters, histograms, the wakeup ledger and trace drop
/// accounting as one JSON object.
void write_metrics_json(std::ostream& out, Session& session);
bool write_metrics_json(const std::string& path, Session& session,
                        std::string* error = nullptr);

/// Flat `metric,kind,value` CSV of the same data.
void write_metrics_csv(std::ostream& out, Session& session);
bool write_metrics_csv(const std::string& path, Session& session,
                       std::string* error = nullptr);

}  // namespace pcpc::obs
