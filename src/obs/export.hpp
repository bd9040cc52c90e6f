// Telemetry exporters.
//
// Three consumer-facing formats:
//   - metrics_json: the snapshot as one JSON object, embedded in the
//     BENCH_*.json files and available from the CLI (--metrics);
//   - prometheus_text: the text exposition format (names have dots mapped
//     to underscores, histograms expand to cumulative `le` buckets) for
//     scraping a long-running fleet verifier;
//   - chrome_trace_json: the tracer's span records as Chrome trace_event
//     "X" (complete) events — load the file in chrome://tracing or Perfetto
//     to see per-session flame charts; thread ids are remapped to small
//     ordinals in order of first appearance so fleet timelines read as
//     "worker 0..N-1" lanes.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sacha::obs {

std::string metrics_json(const MetricsSnapshot& snapshot);
std::string prometheus_text(const MetricsSnapshot& snapshot);
std::string chrome_trace_json(const std::vector<SpanRecord>& records);

/// Inverse of prometheus_text for fleet aggregation: parses a scraped
/// exposition body back into a MetricsSnapshot. Driven by the `# TYPE`
/// headers this exporter always emits; histogram `le` buckets are
/// un-cumulated back to per-bucket counts with the overflow bucket
/// recovered from `_count`. Names come back in their sanitized
/// (underscored) form — prometheus_name() is idempotent, so merging parsed
/// snapshots and re-emitting them round-trips exactly. Unparseable lines
/// are skipped, never fatal (a scrape is advisory input).
MetricsSnapshot parse_prometheus_text(std::string_view text);

/// Sanitizes a dotted metric name to the exposition-format charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): invalid chars map to '_', a leading digit
/// gets a '_' prefix.
std::string prometheus_name(std::string_view name);
/// Escapes a label value per the text exposition format (backslash,
/// double-quote, newline).
std::string prometheus_label_escape(std::string_view value);
/// Escapes the inside of a JSON string literal: backslash and double-quote
/// get a backslash, control characters are dropped.
std::string json_escape(std::string_view s);

/// Writes `content` to `path`; false on I/O error.
bool write_text_file(const std::string& path, const std::string& content);

/// Convenience: snapshots the global registry / drains the global tracer
/// and writes the chosen format. Returns false on I/O error.
bool write_metrics_json(const std::string& path);
bool write_prometheus(const std::string& path);
bool write_chrome_trace(const std::string& path);

}  // namespace sacha::obs
