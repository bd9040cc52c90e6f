#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

namespace sacha::obs {

namespace {

/// Current nesting depth of active spans on this thread.
thread_local std::uint32_t t_depth = 0;

std::uint64_t this_thread_id() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/// FNV-1a, the same simple non-cryptographic mix everywhere in the repo's
/// synthetic id derivations. The trace id only needs to be collision-free
/// across one fleet run, not adversarially strong.
std::uint64_t fnv1a(std::uint64_t seed, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Sampler& Sampler::global() {
  static Sampler* sampler = new Sampler([] {
    if (const char* env = std::getenv("SACHA_OBS_SAMPLE")) {
      char* end = nullptr;
      const double rate = std::strtod(env, &end);
      if (end != env) return rate;
    }
    return 1.0;  // full tracing: the pre-sampling behaviour
  }());
  return *sampler;
}

double Sampler::rate() const {
  const std::uint64_t t = threshold_.load(std::memory_order_relaxed);
  if (t == ~0ULL) return 1.0;
  return static_cast<double>(t) / 18446744073709551616.0;  // 2^64
}

void Sampler::set_rate(double rate) {
  std::uint64_t t;
  if (rate >= 1.0) {
    t = ~0ULL;
  } else if (rate <= 0.0) {
    t = 0;
  } else {
    t = static_cast<std::uint64_t>(rate * 18446744073709551616.0);
  }
  threshold_.store(t, std::memory_order_relaxed);
}

bool Sampler::should_sample(const TraceId& id) const {
  if (!id.valid()) return false;
  const std::uint64_t t = threshold_.load(std::memory_order_relaxed);
  if (t == ~0ULL) return true;
  // Re-mix rather than use id.lo directly: wire trace ids arrive already
  // FNV-mixed, but re-hashing under a distinct seed decorrelates the keep
  // set from anything else keyed on the raw id bits.
  std::uint64_t h = fnv1a(0x53414d504c455230ULL,  // "SAMPLER0"
                          &id, sizeof(id));
  return h < t;
}

bool should_trace(const TraceId& id) {
  return enabled() && Sampler::global().should_sample(id);
}

TraceId make_trace_id(std::string_view device_id, std::uint64_t nonce) {
  TraceId id;
  id.hi = fnv1a(0x53414348614f6273ULL,  // "SACHaObs"
                device_id.data(), device_id.size());
  id.lo = fnv1a(id.hi, &nonce, sizeof(nonce));
  if (!id.valid()) id.lo = 1;  // reserve {0,0} for "no trace"
  return id;
}

std::string to_string(const TraceId& id) {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(id.hi),
                static_cast<unsigned long long>(id.lo));
  return buf;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // never destroyed
  return *tracer;
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void observe_phase_duration(const std::string& phase,
                            std::uint64_t duration_ns) {
  if (!enabled()) return;
  // Same hot-path treatment as any instrument call site: the registry
  // lookup (name concat + mutex + map walk) happens once per phase name
  // per thread, then a thread-local cache serves the pointer. Deliberately
  // NOT wired into Tracer::append — the in-process engines close
  // microsecond-scale RAII phase spans back-to-back, and even a cached
  // lookup between two of those reads as a timeline gap on a loaded host
  // (the 95%-coverage acceptance test catches exactly that). The
  // wire-session emitters call this explicitly; their phases are
  // milliseconds.
  thread_local std::unordered_map<std::string, Histogram*> t_phase_hist;
  auto it = t_phase_hist.find(phase);
  if (it == t_phase_hist.end()) {
    Histogram& hist = MetricsRegistry::global().quantile_histogram(
        "sacha.phase." + phase + "_ns");
    it = t_phase_hist.emplace(phase, &hist).first;
  }
  it->second->observe(duration_ns);
}

void Tracer::append(SpanRecord&& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= kMaxRecords) {
    static Counter& dropped =
        MetricsRegistry::global().counter("sacha.obs.spans_dropped");
    dropped.add(1);
    return;
  }
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<SpanRecord> Tracer::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out = std::move(records_);
  records_.clear();
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

Span::Span(std::string name, TraceId trace, std::string category) {
  if (!enabled()) return;  // the one disabled-path branch
  active_ = true;
  record_.name = std::move(name);
  record_.category = std::move(category);
  record_.trace = trace;
  record_.thread_id = this_thread_id();
  record_.depth = t_depth++;
  record_.start_ns = Tracer::global().now_ns();
}

Span::Span(std::string name, TraceId trace, std::string category,
           std::uint64_t start_ns)
    : Span(std::move(name), trace, std::move(category)) {
  if (active_) record_.start_ns = start_ns;
}

Span::Span(Span&& other) noexcept
    : active_(other.active_), record_(std::move(other.record_)) {
  other.active_ = false;
}

Span& Span::arg(std::string key, std::string value) {
  if (active_) record_.args.emplace_back(std::move(key), std::move(value));
  return *this;
}

void Span::end() {
  if (active_) end_at(Tracer::global().now_ns());
}

void Span::end_at(std::uint64_t end_ns) {
  if (!active_) return;
  active_ = false;
  record_.duration_ns =
      end_ns > record_.start_ns ? end_ns - record_.start_ns : 0;
  --t_depth;
  Tracer::global().append(std::move(record_));
}

SessionTimeline::SessionTimeline(const char* side, std::uint64_t lane_salt,
                                 bool keep_records)
    : side_(side), lane_salt_(lane_salt), keep_records_(keep_records) {}

void SessionTimeline::start(const TraceId& trace, bool sampled) {
  trace_ = trace;
  active_ = sampled && trace.valid() && enabled();
  if (active_) session_start_ns_ = Tracer::global().now_ns();
}

void SessionTimeline::emit(const char* name, const char* category,
                           std::uint64_t start, std::uint64_t end,
                           std::uint32_t depth) {
  SpanRecord r;
  r.name = name;
  r.category = category;
  r.trace = trace_;
  r.thread_id = trace_.lo ^ lane_salt_;
  r.start_ns = start;
  r.duration_ns = end > start ? end - start : 0;
  r.depth = depth;
  r.args.emplace_back("side", side_);
  if (depth == 1) observe_phase_duration(r.name, r.duration_ns);
  if (keep_records_) records_.push_back(r);
  Tracer::global().record(std::move(r));
}

void SessionTimeline::phase(const char* name) {
  if (!active_ || phase_ == name) return;
  const std::uint64_t now = Tracer::global().now_ns();
  if (phase_ != nullptr) emit(phase_, "phase", phase_start_ns_, now, 1);
  phase_ = name;
  phase_start_ns_ = now;
}

void SessionTimeline::finish() {
  if (!active_) return;
  phase(nullptr);
  emit("session", "session", session_start_ns_, Tracer::global().now_ns(), 0);
  active_ = false;
}

double timeline_coverage(const std::vector<SpanRecord>& records,
                         const TraceId& id, std::string_view session_name) {
  const SpanRecord* session = nullptr;
  for (const SpanRecord& r : records) {
    if (r.trace == id && r.name == session_name) {
      session = &r;
      break;
    }
  }
  if (session == nullptr || session->duration_ns == 0) return 0.0;

  // Union of the direct children's intervals, clipped to the session span.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  const std::uint64_t s0 = session->start_ns;
  const std::uint64_t s1 = session->start_ns + session->duration_ns;
  for (const SpanRecord& r : records) {
    if (&r == session || r.trace != id) continue;
    if (r.thread_id != session->thread_id || r.depth != session->depth + 1) {
      continue;
    }
    const std::uint64_t a = std::max(r.start_ns, s0);
    const std::uint64_t b = std::min(r.start_ns + r.duration_ns, s1);
    if (b > a) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = s0;
  for (const auto& [a, b] : intervals) {
    const std::uint64_t from = std::max(a, cursor);
    if (b > from) {
      covered += b - from;
      cursor = b;
    }
  }
  return static_cast<double>(covered) /
         static_cast<double>(session->duration_ns);
}

}  // namespace sacha::obs
