#include "bitstream/golden_model.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>

#include "crypto/sha256.hpp"

#if defined(__linux__) && !defined(SACHA_PORTABLE)
#define SACHA_GM_MMAP 1
#include <sys/mman.h>
#include <sys/stat.h>
#endif
#if defined(__unix__)
#define SACHA_GM_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace sacha::bitstream {

GoldenModel::GoldenModel(const fabric::Floorplan& plan, DesignSpec static_spec,
                         DesignSpec app_spec)
    : static_spec_(std::move(static_spec)), app_spec_(std::move(app_spec)) {
  assert(plan.validate().ok());
  const fabric::DeviceModel& device = plan.device();
  total_frames_ = device.total_frames();
  words_per_frame_ = device.geometry().words_per_frame();

  std::vector<fabric::FrameRange> stat_ranges;
  std::vector<fabric::FrameRange> dyn_ranges;
  for (const fabric::Partition& p : plan.partitions()) {
    if (p.kind == fabric::PartitionKind::kStatic) stat_ranges.push_back(p.frames);
    if (p.kind == fabric::PartitionKind::kDynamic) dyn_ranges.push_back(p.frames);
  }
  assert(!stat_ranges.empty() && !dyn_ranges.empty());
  const auto by_first = [](const fabric::FrameRange& a,
                           const fabric::FrameRange& b) {
    return a.first < b.first;
  };
  std::sort(stat_ranges.begin(), stat_ranges.end(), by_first);
  std::sort(dyn_ranges.begin(), dyn_ranges.end(), by_first);
  // The nonce occupies its own single-frame partition at the top of the
  // last dynamic region so it can be refreshed without touching the
  // application; the application spans every dynamic region (§2.1.2
  // allows one or more).
  assert(dyn_ranges.back().count >= 2 &&
         "need room for application + nonce frame");
  nonce_frame_ = dyn_ranges.back().end() - 1;
  app_ranges_ = dyn_ranges;
  app_ranges_.back().count -= 1;  // carve the nonce frame out
  if (app_ranges_.back().count == 0) app_ranges_.pop_back();
  for (const fabric::FrameRange& r : app_ranges_) app_frame_total_ += r.count;

  // BitGen writes each partition's words straight into its rows (partitions
  // never overlap). Rows no partition writes (the nonce frame, frames
  // outside every partition) stay zero.
  assert(stat_ranges.front().first == 0 && "BootMem image must start at frame 0");
  static_frames_ = stat_ranges.front().count;
  const std::size_t table_words =
      static_cast<std::size_t>(total_frames_) * words_per_frame_;
  golden_.assign(table_words, 0);
  const BitGen bitgen(device);
  const auto rows = [this](const fabric::FrameRange& r) {
    return std::span<std::uint32_t>(golden_).subspan(
        static_cast<std::size_t>(r.first) * words_per_frame_,
        static_cast<std::size_t>(r.count) * words_per_frame_);
  };
  for (const fabric::FrameRange& r : stat_ranges) {
    bitgen.generate_into(r, static_spec_, rows(r));
  }
  for (const fabric::FrameRange& r : app_ranges_) {
    bitgen.generate_into(r, app_spec_, rows(r));
  }

  // The masks come from the device type's interned register positions (one
  // architectural_mask derivation per device type, shared with every
  // ConfigMemory of the type).
  positions_ = RegisterPositions::shared(device);
  mask_.resize(table_words);
  for (std::uint32_t f = 0; f < total_frames_; ++f) {
    positions_->write_mask(
        f, mask_.data() + static_cast<std::size_t>(f) * words_per_frame_);
  }
  golden_table_ = golden_.data();
  mask_table_ = mask_.data();
}

GoldenModel::~GoldenModel() {
#if defined(SACHA_GM_MMAP)
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
#endif
}

namespace {

struct ModelCache {
  std::mutex mutex;
  std::unordered_map<std::string, std::weak_ptr<const GoldenModel>> entries;
};

ModelCache& model_cache() {
  static ModelCache cache;
  return cache;
}

/// Everything the model content depends on: device identity and geometry,
/// partition layout, and both design specs.
std::string cache_key(const fabric::Floorplan& plan,
                      const DesignSpec& static_spec,
                      const DesignSpec& app_spec) {
  std::string key = plan.device().name();
  key += '/' + std::to_string(plan.device().total_frames());
  key += 'x' + std::to_string(plan.device().geometry().words_per_frame());
  for (const fabric::Partition& p : plan.partitions()) {
    key += p.kind == fabric::PartitionKind::kStatic ? "|s" : "|d";
    key += std::to_string(p.frames.first) + '+' + std::to_string(p.frames.count);
  }
  key += "|static=" + static_spec.name + '#' + std::to_string(static_spec.seed);
  key += "|app=" + app_spec.name + '#' + std::to_string(app_spec.seed);
  return key;
}

}  // namespace

std::shared_ptr<const GoldenModel> GoldenModel::shared(
    const fabric::Floorplan& plan, const DesignSpec& static_spec,
    const DesignSpec& app_spec) {
  ModelCache& cache = model_cache();
  const std::string key = cache_key(plan, static_spec, app_spec);
  std::lock_guard<std::mutex> lock(cache.mutex);
  for (auto it = cache.entries.begin(); it != cache.entries.end();) {
    it = it->second.expired() ? cache.entries.erase(it) : std::next(it);
  }
  if (auto it = cache.entries.find(key); it != cache.entries.end()) {
    if (auto model = it->second.lock()) return model;
  }
  auto model = std::make_shared<const GoldenModel>(plan, static_spec, app_spec);
  cache.entries[key] = model;
  return model;
}

std::size_t GoldenModel::live_cache_entries() {
  ModelCache& cache = model_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  std::size_t live = 0;
  for (const auto& [key, entry] : cache.entries) {
    if (!entry.expired()) ++live;
  }
  return live;
}

// ---- On-disk cache ---------------------------------------------------------

namespace {

// Versioned binary layout (host-endian; a local warm-start cache, not an
// interchange format): magic, version, identity digest, geometry, specs, the
// app ranges, then the golden table and the mask table. Both table payloads
// are 64-byte-aligned (zero pad after the length word) so load_mapped() can
// hand the mapped bytes straight to the uint32 SIMD compare.
constexpr char kMagic[8] = {'S', 'A', 'C', 'H', 'A', 'G', 'M', '1'};
constexpr std::uint32_t kFormatVersion = 4;
constexpr std::size_t kTableAlign = 64;

struct Writer {
  std::ofstream out;
  bool ok = true;
  std::uint64_t written = 0;

  void raw(const void* data, std::size_t bytes) {
    if (ok) ok = !!out.write(static_cast<const char*>(data),
                             static_cast<std::streamsize>(bytes));
    if (ok) written += bytes;
  }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void spec(const DesignSpec& s) {
    str(s.name);
    u64(s.seed);
  }
  void align() {
    static constexpr char zeros[kTableAlign] = {};
    const std::size_t pad =
        (kTableAlign - static_cast<std::size_t>(written % kTableAlign)) %
        kTableAlign;
    raw(zeros, pad);
  }
  /// Table payload: length word, pad to the next 64-byte file offset,
  /// then the raw words (so a mapping of the file yields aligned lanes).
  void table(const std::uint32_t* p, std::uint64_t n) {
    u64(n);
    align();
    raw(p, static_cast<std::size_t>(n) * sizeof(std::uint32_t));
  }
};

}  // namespace

/// Shared decoder for load() and load_mapped(): one bounds-checked pass over
/// the file, read from a mapping (`data`) or straight from the stream
/// (`file`). Every read is validated against the remaining byte count, so a
/// truncated file fails cleanly at whatever section the cut landed in, and
/// a final exact-length check rejects garbage-tailed files — the
/// corruption-matrix tests exercise both.
struct ModelParser {
  const std::uint8_t* data = nullptr;  // the mapped file, or null
  std::istream* file = nullptr;        // the file to read, when not mapped
  std::size_t size = 0;                // file length
  std::size_t pos = 0;
  bool ok = true;
  /// Sanity cap on string lengths and range counts: a corrupt length
  /// field fails fast instead of allocating.
  static constexpr std::uint64_t kMaxWords = 1u << 28;  // 1 GiB of words

  bool need(std::size_t bytes) {
    if (ok && size - pos >= bytes) return true;
    ok = false;
    return false;
  }
  void raw(void* out, std::size_t bytes) {
    if (!need(bytes)) return;
    if (data != nullptr) {
      std::memcpy(out, data + pos, bytes);
    } else if (!file->read(static_cast<char*>(out),
                           static_cast<std::streamsize>(bytes))) {
      ok = false;
      return;
    }
    pos += bytes;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > kMaxWords || !need(static_cast<std::size_t>(n))) {
      ok = false;
      return {};
    }
    std::string s(static_cast<std::size_t>(n), '\0');
    raw(s.data(), s.size());
    return s;
  }
  DesignSpec spec() {
    DesignSpec s;
    s.name = str();
    s.seed = u64();
    return s;
  }
  void align() {
    char pad[kTableAlign];
    raw(pad, ((pos + (kTableAlign - 1)) & ~(kTableAlign - 1)) - pos);
  }
  /// Length-checked table. A mapped table is borrowed: the pointer is into
  /// the mapping. Otherwise the words are read straight into `heap`.
  const std::uint32_t* table(std::uint64_t expect_words,
                             std::vector<std::uint32_t>& heap) {
    const std::uint64_t n = u64();
    if (!ok || n != expect_words) {
      ok = false;
      return nullptr;
    }
    align();
    const std::size_t bytes =
        static_cast<std::size_t>(n) * sizeof(std::uint32_t);
    if (!need(bytes)) return nullptr;
    if (data != nullptr) {
      const auto* p = reinterpret_cast<const std::uint32_t*>(data + pos);
      pos += bytes;
      return p;
    }
    heap.resize(static_cast<std::size_t>(n));
    raw(heap.data(), bytes);
    return ok ? heap.data() : nullptr;
  }

  /// Full-file decode + validation. Returns nullptr on any truncation,
  /// trailing garbage, or identity/geometry mismatch. A mapped model's
  /// tables point into `data`, which the caller must keep mapped.
  std::shared_ptr<GoldenModel> parse(const fabric::Floorplan& plan,
                                     const DesignSpec& static_spec,
                                     const DesignSpec& app_spec) {
    char magic[sizeof(kMagic)] = {};
    raw(magic, sizeof(magic));
    if (!ok || !std::equal(std::begin(magic), std::end(magic), kMagic)) {
      return nullptr;
    }
    if (u32() != kFormatVersion) return nullptr;
    // The identity digest seals device, partition layout and specs: a stale
    // file for a different fleet configuration can never be mistaken for
    // this one.
    if (str() != GoldenModel::cache_digest(plan, static_spec, app_spec)) {
      return nullptr;
    }

    std::shared_ptr<GoldenModel> model(new GoldenModel());
    model->total_frames_ = u32();
    model->words_per_frame_ = u32();
    model->nonce_frame_ = u32();
    model->app_frame_total_ = u32();
    model->static_frames_ = u32();
    model->static_spec_ = spec();
    model->app_spec_ = spec();
    const std::uint32_t ranges = u32();
    if (ranges > kMaxWords) ok = false;
    for (std::uint32_t i = 0; ok && i < ranges; ++i) {
      fabric::FrameRange range;
      range.first = u32();
      range.count = u32();
      model->app_ranges_.push_back(range);
    }
    if (!ok) return nullptr;

    // Geometry sanity against the live floorplan before trusting the table
    // lengths (truncated or corrupted tables must not produce a
    // quietly-wrong model).
    const fabric::DeviceModel& device = plan.device();
    // Rows are read by range, so every range must lie inside the table.
    const std::uint32_t frames = device.total_frames();
    const auto outside = [frames](const fabric::FrameRange& r) {
      return r.first > frames || r.count > frames - r.first;
    };
    if (model->total_frames_ != frames ||
        model->words_per_frame_ != device.geometry().words_per_frame() ||
        model->static_frames_ > frames || model->nonce_frame_ >= frames ||
        std::any_of(model->app_ranges_.begin(), model->app_ranges_.end(),
                    outside)) {
      return nullptr;
    }
    if (model->static_spec_ != static_spec || model->app_spec_ != app_spec) {
      return nullptr;
    }
    const std::uint64_t table_words =
        static_cast<std::uint64_t>(model->total_frames_) *
        model->words_per_frame_;
    model->golden_table_ = table(table_words, model->golden_);
    model->mask_table_ = table(table_words, model->mask_);
    if (!ok) return nullptr;
    // A well-formed file ends exactly at the second table: trailing bytes
    // mean the writer and this reader disagree about the format — reject
    // rather than silently ignoring them.
    if (pos != size) return nullptr;
    return model;
  }
};

std::string GoldenModel::cache_digest(const fabric::Floorplan& plan,
                                      const DesignSpec& static_spec,
                                      const DesignSpec& app_spec) {
  const std::string key = cache_key(plan, static_spec, app_spec);
  const crypto::Sha256Digest digest = crypto::Sha256::compute(
      ByteSpan(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
  std::string hex;
  hex.reserve(digest.size() * 2);
  for (const std::uint8_t byte : digest) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", byte);
    hex += buf;
  }
  return hex;
}

namespace {

/// Flushes a written file to stable storage before it is renamed into
/// place, so a crash never leaves a renamed but torn cache file.
bool sync_to_disk(const std::string& path) {
#if defined(SACHA_GM_POSIX)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
#else
  (void)path;
  return true;
#endif
}

std::string temp_path_beside(const std::string& path) {
  static std::atomic<std::uint64_t> sequence{0};
#if defined(SACHA_GM_POSIX)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

bool GoldenModel::save(const std::string& path,
                       const fabric::Floorplan& plan) const {
  // Write a private file in the same directory, sync it, then rename it
  // over `path`. A process that has the old file mapped keeps the old
  // inode; rewriting in place would truncate its pages under it (SIGBUS).
  const std::string temp = temp_path_beside(path);
  const bool written = write_file(temp, plan);
  if (!written || !sync_to_disk(temp) ||
      std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

bool GoldenModel::write_file(const std::string& path,
                             const fabric::Floorplan& plan) const {
  Writer w;
  w.out.open(path, std::ios::binary | std::ios::trunc);
  if (!w.out.is_open()) return false;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.str(cache_digest(plan, static_spec_, app_spec_));
  w.u32(total_frames_);
  w.u32(words_per_frame_);
  w.u32(nonce_frame_);
  w.u32(app_frame_total_);
  w.u32(static_frames_);
  w.spec(static_spec_);
  w.spec(app_spec_);
  w.u32(static_cast<std::uint32_t>(app_ranges_.size()));
  for (const fabric::FrameRange& r : app_ranges_) {
    w.u32(r.first);
    w.u32(r.count);
  }
  const std::uint64_t table_words =
      static_cast<std::uint64_t>(total_frames_) * words_per_frame_;
  w.table(golden_table_, table_words);
  w.table(mask_table_, table_words);
  w.out.close();
  return w.ok && !w.out.fail();
}

std::shared_ptr<const GoldenModel> GoldenModel::load(
    const std::string& path, const fabric::Floorplan& plan,
    const DesignSpec& static_spec, const DesignSpec& app_spec) {
  // The header is read field by field and each table straight into the
  // model's vector, so the load never holds a second copy of the file.
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return nullptr;
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  if (len <= 0) return nullptr;
  in.seekg(0);
  ModelParser parser{.file = &in, .size = static_cast<std::size_t>(len)};
  return parser.parse(plan, static_spec, app_spec);
}

bool GoldenModel::mapping_supported() {
#if defined(SACHA_GM_MMAP)
  return true;
#else
  return false;
#endif
}

std::shared_ptr<const GoldenModel> GoldenModel::load_mapped(
    const std::string& path, const fabric::Floorplan& plan,
    const DesignSpec& static_spec, const DesignSpec& app_spec) {
#if defined(SACHA_GM_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return nullptr;
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (base == MAP_FAILED) return nullptr;
  // Fault the tables in ahead of the verify hot loop instead of paying
  // one major fault per 4 KiB mid-session.
  (void)::madvise(base, len, MADV_WILLNEED);
  ModelParser parser{.data = static_cast<const std::uint8_t*>(base),
                     .size = len};
  auto model = parser.parse(plan, static_spec, app_spec);
  if (model == nullptr) {
    ::munmap(base, len);
    return nullptr;
  }
  model->map_base_ = base;
  model->map_len_ = len;
  return model;
#else
  // No mmap on this build tier: degrade to the heap copy so callers never
  // have to special-case portability.
  return load(path, plan, static_spec, app_spec);
#endif
}

bool GoldenModel::operator==(const GoldenModel& other) const {
  if (!(static_spec_ == other.static_spec_ && app_spec_ == other.app_spec_ &&
        total_frames_ == other.total_frames_ &&
        words_per_frame_ == other.words_per_frame_ &&
        nonce_frame_ == other.nonce_frame_ &&
        app_frame_total_ == other.app_frame_total_ &&
        static_frames_ == other.static_frames_ &&
        app_ranges_ == other.app_ranges_)) {
    return false;
  }
  // Table contents, not storage: a mapped model compares equal to the heap
  // model it was serialised from.
  const std::size_t table_bytes = static_cast<std::size_t>(total_frames_) *
                                  words_per_frame_ * sizeof(std::uint32_t);
  return std::memcmp(golden_table_, other.golden_table_, table_bytes) == 0 &&
         std::memcmp(mask_table_, other.mask_table_, table_bytes) == 0;
}

std::shared_ptr<const GoldenModel> GoldenModel::shared_cached(
    const fabric::Floorplan& plan, const DesignSpec& static_spec,
    const DesignSpec& app_spec, const std::string& cache_dir,
    CacheSource* source, bool prefer_mapped) {
  ModelCache& cache = model_cache();
  const std::string key = cache_key(plan, static_spec, app_spec);
  std::lock_guard<std::mutex> lock(cache.mutex);
  for (auto it = cache.entries.begin(); it != cache.entries.end();) {
    it = it->second.expired() ? cache.entries.erase(it) : std::next(it);
  }
  if (auto it = cache.entries.find(key); it != cache.entries.end()) {
    if (auto model = it->second.lock()) {
      if (source != nullptr) *source = CacheSource::kInterned;
      return model;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  const std::string path =
      (std::filesystem::path(cache_dir) /
       (cache_digest(plan, static_spec, app_spec) + ".sgm"))
          .string();
  if (auto model = prefer_mapped
                       ? load_mapped(path, plan, static_spec, app_spec)
                       : load(path, plan, static_spec, app_spec)) {
    cache.entries[key] = model;
    if (source != nullptr) {
      *source = model->tables_mapped() ? CacheSource::kMapped
                                       : CacheSource::kLoaded;
    }
    return model;
  }
  auto model = std::make_shared<const GoldenModel>(plan, static_spec, app_spec);
  const bool saved = model->save(path, plan);  // best-effort persist
  if (saved && prefer_mapped) {
    // Re-open our own freshly-written file mapped: the builder shard then
    // shares the same page-cache copy as every later shard on the host.
    if (auto mapped = load_mapped(path, plan, static_spec, app_spec);
        mapped != nullptr && mapped->tables_mapped()) {
      cache.entries[key] = mapped;
      if (source != nullptr) *source = CacheSource::kBuilt;
      return mapped;
    }
  }
  cache.entries[key] = model;
  if (source != nullptr) *source = CacheSource::kBuilt;
  return model;
}

}  // namespace sacha::bitstream
