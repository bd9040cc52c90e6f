// Precompiled golden reference for streaming verification.
//
// The paper's verifier keeps, per design, a golden bitstream and bitgen's
// register mask Msk. GoldenModel keeps exactly those two, as flat
// frame-indexed tables of words: the golden table (unmasked, what BitGen
// emits for each partition; zero for the nonce frame and for frames outside
// every partition) and the mask table. Both are computed once per (device,
// floorplan, static design, application) and immutable afterwards. The
// streamed masked compare is one XOR+AND pass over the incoming word span,
// and command payloads and the BootMem image are spans of golden rows.
//
// Immutability is what makes the model shareable: a swarm fleet of N devices
// provisioned with the same floorplan and designs holds one GoldenModel via
// `shared_ptr` instead of N copies of the ~9.2 MB (Virtex-6) golden image.
// `GoldenModel::shared()` interns models in a process-wide cache keyed by
// device + partition layout + design specs; the cache holds weak references,
// so models die with their last verifier.
//
// The session nonce frame is deliberately *not* part of the model: its
// content changes every `begin()`, so the verifier compares that frame
// against the session's nonce words. The model still carries that frame's
// architectural mask (flip-flop positions are silicon, not session, state).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitstream/bitgen.hpp"
#include "bitstream/masked_compare.hpp"
#include "fabric/partition.hpp"

namespace sacha::bitstream {

class GoldenModel {
 public:
  /// Builds the golden and mask tables for `plan`. Prefer `shared()` so
  /// identical fleets intern one copy.
  GoldenModel(const fabric::Floorplan& plan, DesignSpec static_spec,
              DesignSpec app_spec);

  /// Interned construction: returns the cached model for this
  /// (device, partition layout, static spec, app spec) if one is alive,
  /// else builds and caches it. Thread-safe.
  static std::shared_ptr<const GoldenModel> shared(
      const fabric::Floorplan& plan, const DesignSpec& static_spec,
      const DesignSpec& app_spec);

  /// Live entries in the intern cache (expired entries are swept on each
  /// shared() call). Exposed for the sharing tests and the fleet bench.
  static std::size_t live_cache_entries();

  // -- On-disk cache --------------------------------------------------------
  //
  // The tables are deterministic per (device, partition layout, design
  // specs), so a fleet-verifier restart can skip BitGen + mask precompile:
  // models serialise to a versioned binary file named by the sha256 digest
  // of the same identity key the intern cache uses. Host-endian — a local
  // warm-start cache, not an interchange format.

  /// Hex sha256 of the model identity key; names the cache file.
  static std::string cache_digest(const fabric::Floorplan& plan,
                                  const DesignSpec& static_spec,
                                  const DesignSpec& app_spec);

  /// Serialises the model (header, app ranges, both tables) to `path`.
  /// `plan` must be the floorplan the model was built from — its digest is
  /// sealed into the header. The file is written beside `path`, synced and
  /// renamed into place, so processes that have the old file mapped keep
  /// reading the old contents. Returns false on I/O failure.
  bool save(const std::string& path, const fabric::Floorplan& plan) const;

  /// Deserialises a model previously save()d for the same (device, plan,
  /// specs), reading both tables straight into the model's heap storage
  /// (no whole-file buffer, so a load holds little beyond the two tables).
  /// Validates magic, version,
  /// identity digest and geometry, and rejects truncated or garbage-tailed
  /// files; returns nullptr on any mismatch or I/O/corruption error. A file
  /// of an older format version is a mismatch: shared_cached() rebuilds it.
  static std::shared_ptr<const GoldenModel> load(
      const std::string& path, const fabric::Floorplan& plan,
      const DesignSpec& static_spec, const DesignSpec& app_spec);

  /// Like load(), but maps the file read-only (`MAP_SHARED`) and *borrows*
  /// both tables straight from the mapping instead of copying them onto the
  /// heap. The format 64-byte-aligns both table payloads, so the borrowed
  /// pointers are valid `uint32_t` lanes for the SIMD compare. Every process
  /// on a host that maps the same `.sgm` shares one page-cache copy of the
  /// tables — the point of the shard coordinator's RSS-per-shard-flat
  /// property; only the specs and app ranges land on the heap. Falls back
  /// to the heap `load()` path on non-Linux or `SACHA_PORTABLE` builds, and
  /// on any mmap failure. Same validation and nullptr-on-corruption
  /// contract.
  static std::shared_ptr<const GoldenModel> load_mapped(
      const std::string& path, const fabric::Floorplan& plan,
      const DesignSpec& static_spec, const DesignSpec& app_spec);

  /// True when this build can actually mmap (Linux, not SACHA_PORTABLE);
  /// false means load_mapped() degrades to the heap path.
  static bool mapping_supported();

  /// True iff this instance's tables live in a shared file mapping.
  bool tables_mapped() const { return map_base_ != nullptr; }

  /// Where shared_cached() found the model (restart-cost accounting).
  enum class CacheSource { kInterned, kLoaded, kMapped, kBuilt };

  /// Three-tier interned construction: process intern cache, then
  /// `cache_dir/<digest>.sgm` on disk, then a fresh build (persisted to the
  /// cache dir best-effort). Thread-safe; `source` (optional) reports which
  /// tier hit. With `prefer_mapped`, the disk tier uses load_mapped() (and
  /// a fresh build re-opens its own just-saved file mapped), so concurrent
  /// shard processes share one page-cache copy of the tables; the source
  /// for a mapped disk hit is kMapped.
  static std::shared_ptr<const GoldenModel> shared_cached(
      const fabric::Floorplan& plan, const DesignSpec& static_spec,
      const DesignSpec& app_spec, const std::string& cache_dir,
      CacheSource* source = nullptr, bool prefer_mapped = false);

  /// Bit-identity over everything serialised (specs, geometry, ranges, both
  /// tables) — what the round-trip test asserts.
  bool operator==(const GoldenModel& other) const;

  // -- Region structure -----------------------------------------------------

  /// Dynamic-partition ranges spanned by the application, ascending, with
  /// the nonce frame carved out of the last one.
  const std::vector<fabric::FrameRange>& app_ranges() const {
    return app_ranges_;
  }
  std::uint32_t app_frame_total() const { return app_frame_total_; }
  /// The single-frame nonce partition at the top of the last dynamic region.
  std::uint32_t nonce_frame() const { return nonce_frame_; }

  // -- The two tables -------------------------------------------------------

  std::uint32_t total_frames() const { return total_frames_; }
  std::uint32_t words_per_frame() const { return words_per_frame_; }

  /// Golden content of `frame`: the static design or the application where
  /// a partition holds the frame, zero for the nonce frame (its content is
  /// per-session) and for frames outside every partition.
  std::span<const std::uint32_t> golden_words(std::uint32_t frame) const {
    return golden_words(frame, 1);
  }
  /// Rows [first, first + count) of the golden table, back to back.
  std::span<const std::uint32_t> golden_words(std::uint32_t first,
                                              std::uint32_t count) const {
    return {golden_table_ + static_cast<std::size_t>(first) * words_per_frame_,
            static_cast<std::size_t>(count) * words_per_frame_};
  }
  /// Rows [0, n) of the base static partition (the one starting at frame
  /// 0) — what the BootMem is provisioned with.
  std::span<const std::uint32_t> static_words() const {
    return golden_words(0, static_frames_);
  }

  /// Architectural register mask of `frame`, identical word-for-word to
  /// `architectural_mask(device, frame)`.
  std::span<const std::uint32_t> mask_words(std::uint32_t frame) const {
    return {mask_table_ + static_cast<std::size_t>(frame) * words_per_frame_,
            words_per_frame_};
  }

  /// Streaming masked compare: true iff `received` (one frame's words)
  /// agrees with the golden row on every mask=1 bit. Not valid for the
  /// nonce frame — its golden content lives in the session.
  bool frame_matches(std::uint32_t frame,
                     std::span<const std::uint32_t> received) const {
    const std::size_t row = static_cast<std::size_t>(frame) * words_per_frame_;
    return masked_words_equal(received.data(), golden_table_ + row,
                              mask_table_ + row, words_per_frame_);
  }

  /// The device type's interned register-position table the mask table was
  /// filled from. A built model holds it, so a device provisioned while
  /// only verifiers of its type are alive reuses it instead of deriving it
  /// again; loaded and mapped models read their masks from the file and
  /// hold none (nullptr).
  const std::shared_ptr<const RegisterPositions>& register_positions() const {
    return positions_;
  }

  /// Heap bytes of the two tables: both for a built or heap-loaded model,
  /// none for a mapped one. For the fleet memory accounting in bench_swarm /
  /// bench_verifier.
  std::size_t footprint_bytes() const {
    return (golden_.size() + mask_.size()) * sizeof(std::uint32_t);
  }

  const DesignSpec& static_spec() const { return static_spec_; }
  const DesignSpec& app_spec() const { return app_spec_; }

  /// Tables in mapped instances are borrowed from the mapping, so the
  /// table pointers cannot survive a copy.
  GoldenModel(const GoldenModel&) = delete;
  GoldenModel& operator=(const GoldenModel&) = delete;
  ~GoldenModel();

 private:
  GoldenModel() = default;  // load()/load_mapped() fill the fields directly

  friend struct ModelParser;  // shared load/load_mapped decoder

  /// save()'s serialiser: writes the whole file at `path`.
  bool write_file(const std::string& path, const fabric::Floorplan& plan) const;

  DesignSpec static_spec_;
  DesignSpec app_spec_;
  std::uint32_t total_frames_ = 0;
  std::uint32_t words_per_frame_ = 0;
  std::uint32_t nonce_frame_ = 0;
  std::uint32_t app_frame_total_ = 0;
  std::uint32_t static_frames_ = 0;  // rows of the base static partition

  std::shared_ptr<const RegisterPositions> positions_;  // built models only
  std::vector<fabric::FrameRange> app_ranges_;

  // The tables, total_frames * words_per_frame words each. The accessors
  // read through `golden_table_` / `mask_table_`: for built and heap-loaded
  // models they point at the owning vectors below; for mapped models they
  // point into `map_base_` and the vectors stay empty (which is also what
  // keeps footprint_bytes() honest about heap cost).
  std::vector<std::uint32_t> golden_;
  std::vector<std::uint32_t> mask_;
  const std::uint32_t* golden_table_ = nullptr;
  const std::uint32_t* mask_table_ = nullptr;
  void* map_base_ = nullptr;  // munmap'd by the dtor when non-null
  std::size_t map_len_ = 0;
};

}  // namespace sacha::bitstream
