#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

namespace sacha::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
    out.push_back(c);
  }
  return out;
}

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  // Metric names must not start with a digit ([a-zA-Z_:] first).
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string prometheus_label_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

/// HELP text: backslash and newline must be escaped (quotes are fine).
std::string prometheus_help_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void prometheus_header(std::ostringstream& out, const std::string& name,
                       std::string_view dotted, std::string_view type) {
  out << "# HELP " << name << " SACHa " << type << " "
      << prometheus_help_escape(dotted) << "\n";
  out << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& c = snapshot.counters[i];
    out << (i ? "," : "") << "\n    \"" << json_escape(c.name)
        << "\": " << c.value;
  }
  out << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSample& g = snapshot.gauges[i];
    out << (i ? "," : "") << "\n    \"" << json_escape(g.name)
        << "\": " << g.value;
  }
  out << (snapshot.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& h = snapshot.histograms[i];
    out << (i ? "," : "") << "\n    \"" << json_escape(h.name)
        << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"bounds\": [";
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      out << (b ? "," : "") << h.upper_bounds[b];
    }
    out << "], \"buckets\": [";
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      out << (b ? "," : "") << h.bucket_counts[b];
    }
    out << "]}";
  }
  out << (snapshot.histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const CounterSample& c : snapshot.counters) {
    const std::string name = prometheus_name(c.name);
    prometheus_header(out, name, c.name, "counter");
    out << name << " " << c.value << "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    const std::string name = prometheus_name(g.name);
    prometheus_header(out, name, g.name, "gauge");
    out << name << " " << g.value << "\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    const std::string name = prometheus_name(h.name);
    prometheus_header(out, name, h.name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      cumulative += h.bucket_counts[b];
      out << name << "_bucket{le=\""
          << prometheus_label_escape(std::to_string(h.upper_bounds[b]))
          << "\"} " << cumulative << "\n";
    }
    out << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << name << "_sum " << h.sum << "\n";
    out << name << "_count " << h.count << "\n";
  }
  return out.str();
}

MetricsSnapshot parse_prometheus_text(std::string_view text) {
  MetricsSnapshot snap;
  std::string cur_name;   // sanitized metric name from the last # TYPE line
  std::string cur_type;   // counter | gauge | histogram
  HistogramSample hist;   // in-flight histogram (cur_type == "histogram")
  std::uint64_t cumulative = 0;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      constexpr std::string_view kType = "# TYPE ";
      if (line.substr(0, kType.size()) != kType) continue;
      const std::string_view rest = line.substr(kType.size());
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos) continue;
      cur_name = std::string(rest.substr(0, space));
      cur_type = std::string(rest.substr(space + 1));
      if (cur_type == "histogram") {
        hist = HistogramSample{};
        hist.name = cur_name;
        cumulative = 0;
      }
      continue;
    }

    // Sample line: <key>[{labels}] <value>. The value separator is the
    // first space after the (optional) label block.
    const std::size_t brace = line.find('{');
    std::size_t sep;
    if (brace != std::string_view::npos) {
      const std::size_t close = line.find('}', brace);
      if (close == std::string_view::npos) continue;
      sep = line.find(' ', close);
    } else {
      sep = line.find(' ');
    }
    if (sep == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, sep);
    const std::string value_str(line.substr(sep + 1));

    if (cur_type == "counter" && key == cur_name) {
      snap.counters.push_back(
          {cur_name, std::strtoull(value_str.c_str(), nullptr, 10)});
    } else if (cur_type == "gauge" && key == cur_name) {
      snap.gauges.push_back(
          {cur_name, std::strtoll(value_str.c_str(), nullptr, 10)});
    } else if (cur_type == "histogram") {
      const std::string bucket_prefix = cur_name + "_bucket{le=\"";
      if (key.substr(0, bucket_prefix.size()) == bucket_prefix) {
        const std::string_view le =
            key.substr(bucket_prefix.size(),
                       key.size() - bucket_prefix.size() - 2);  // strip "}
        if (le == "+Inf") continue;  // recovered from _count below
        const std::uint64_t cum =
            std::strtoull(value_str.c_str(), nullptr, 10);
        hist.upper_bounds.push_back(
            std::strtoull(std::string(le).c_str(), nullptr, 10));
        hist.bucket_counts.push_back(cum >= cumulative ? cum - cumulative : 0);
        cumulative = cum;
      } else if (key == cur_name + "_sum") {
        hist.sum = std::strtoull(value_str.c_str(), nullptr, 10);
      } else if (key == cur_name + "_count") {
        hist.count = std::strtoull(value_str.c_str(), nullptr, 10);
        // Overflow bucket: observations past the last bound.
        hist.bucket_counts.push_back(
            hist.count >= cumulative ? hist.count - cumulative : 0);
        snap.histograms.push_back(hist);
        hist = HistogramSample{};
        cumulative = 0;
      }
    }
  }
  return snap;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& records) {
  // Remap thread hashes to small ordinals (by first appearance in record
  // order) so timelines read as worker lanes.
  std::map<std::uint64_t, unsigned> tid_map;
  unsigned next_tid = 0;
  for (const SpanRecord& r : records) {
    if (tid_map.emplace(r.thread_id, next_tid).second) ++next_tid;
  }

  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    char ts[64];
    char dur[64];
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(r.start_ns) / 1'000.0);
    std::snprintf(dur, sizeof(dur), "%.3f",
                  static_cast<double>(r.duration_ns) / 1'000.0);
    out << (i ? ",\n" : "\n") << " {\"name\": \"" << json_escape(r.name)
        << "\", \"cat\": \"" << json_escape(r.category)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid_map[r.thread_id]
        << ", \"ts\": " << ts << ", \"dur\": " << dur << ", \"args\": {";
    out << "\"trace_id\": \"" << to_string(r.trace) << "\"";
    for (const auto& [key, value] : r.args) {
      out << ", \"" << json_escape(key) << "\": \"" << json_escape(value)
          << "\"";
    }
    out << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written == content.size()) return false;
  return ok;
}

bool write_metrics_json(const std::string& path) {
  return write_text_file(path,
                         metrics_json(MetricsRegistry::global().snapshot()));
}

bool write_prometheus(const std::string& path) {
  return write_text_file(
      path, prometheus_text(MetricsRegistry::global().snapshot()));
}

bool write_chrome_trace(const std::string& path) {
  return write_text_file(path, chrome_trace_json(Tracer::global().drain()));
}

}  // namespace sacha::obs
