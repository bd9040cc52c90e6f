// Precompiled golden reference for streaming verification.
//
// The verifier's hot loop compares every readback frame against the golden
// configuration under the architectural register mask. Doing that from the
// region-structured images means, per frame per session: a linear scan over
// partition ranges, a fresh `architectural_mask` generation (an Rng walk over
// ~2% of the frame bits), a `bs::Frame` construction and a byte
// re-serialisation for the MAC. GoldenModel hoists all of it to build time:
// one flat frame-index-indexed table of mask words and pre-masked golden
// words, computed once per (device, floorplan, static design, application)
// and immutable afterwards, so a streamed masked compare is a single
// AND+compare pass over the incoming word span.
//
// Immutability is what makes the model shareable: a swarm fleet of N devices
// provisioned with the same floorplan and designs holds one GoldenModel via
// `shared_ptr` instead of N copies of the ~9.2 MB (Virtex-6) golden image.
// `GoldenModel::shared()` interns models in a process-wide cache keyed by
// device + partition layout + design specs; the cache holds weak references,
// so models die with their last verifier.
//
// The session nonce frame is deliberately *not* part of the model: its
// content changes every `begin()`, so the verifier overlays it per session.
// The model still carries that frame's architectural mask (flip-flop
// positions are silicon, not session, state).
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
  /// Builds the full golden reference for `plan`: region images for command
  /// assembly, plus the flat mask / masked-golden tables for streaming
  /// compare. Prefer `shared()` so identical fleets intern one copy.
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
  // The flat tables are deterministic per (device, partition layout, design
  // specs), so a fleet-verifier restart can skip BitGen + mask precompile:
  // models serialise to a versioned binary file named by the sha256 digest
  // of the same identity key the intern cache uses. Host-endian — a local
  // warm-start cache, not an interchange format.

  /// Hex sha256 of the model identity key; names the cache file.
  static std::string cache_digest(const fabric::Floorplan& plan,
                                  const DesignSpec& static_spec,
                                  const DesignSpec& app_spec);

  /// Serialises the model (all region images + flat tables) to `path`.
  /// `plan` must be the floorplan the model was built from — its digest is
  /// sealed into the header. The file is written beside `path`, synced and
  /// renamed into place, so processes that have the old file mapped keep
  /// reading the old contents. Returns false on I/O failure.
  bool save(const std::string& path, const fabric::Floorplan& plan) const;

  /// Deserialises a model previously save()d for the same (device, plan,
  /// specs). Validates magic, version, identity digest and geometry, and
  /// rejects truncated or garbage-tailed files; returns nullptr on any
  /// mismatch or I/O/corruption error.
  static std::shared_ptr<const GoldenModel> load(
      const std::string& path, const fabric::Floorplan& plan,
      const DesignSpec& static_spec, const DesignSpec& app_spec);

  /// Like load(), but maps the file read-only (`MAP_SHARED`) and *borrows*
  /// the flat streaming tables straight from the mapping instead of copying
  /// them onto the heap. The format 64-byte-aligns both table payloads, so
  /// the borrowed pointers are valid `uint32_t` lanes for the SIMD compare.
  /// Every process on a host that maps the same `.sgm` shares one page-cache
  /// copy of the ~9 MB tables — the point of the shard coordinator's
  /// RSS-per-shard-flat property. Region images and specs are still copied
  /// (they are small and needed mutable-adjacent). Falls back to the heap
  /// `load()` path on non-Linux or `SACHA_PORTABLE` builds, and on any
  /// mmap failure. Same validation and nullptr-on-corruption contract.
  static std::shared_ptr<const GoldenModel> load_mapped(
      const std::string& path, const fabric::Floorplan& plan,
      const DesignSpec& static_spec, const DesignSpec& app_spec);

  /// True when this build can actually mmap (Linux, not SACHA_PORTABLE);
  /// false means load_mapped() degrades to the heap path.
  static bool mapping_supported();

  /// True iff this instance's flat tables live in a shared file mapping.
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

  /// Bit-identity over everything serialised (specs, geometry, region
  /// images, flat tables) — what the round-trip test asserts.
  bool operator==(const GoldenModel& other) const;

  // -- Region structure (what SachaVerifier previously derived itself) -----

  /// Dynamic-partition ranges spanned by the application, ascending, with
  /// the nonce frame carved out of the last one.
  const std::vector<fabric::FrameRange>& app_ranges() const {
    return app_ranges_;
  }
  std::uint32_t app_frame_total() const { return app_frame_total_; }
  /// The single-frame nonce partition at the top of the last dynamic region.
  std::uint32_t nonce_frame() const { return nonce_frame_; }

  /// Golden image of the base static partition (starts at frame 0) — what
  /// the BootMem is provisioned with.
  const ConfigImage& static_image() const;
  /// Golden image of application region `region` (index into app_ranges()).
  const ConfigImage& app_image(std::size_t region) const {
    return app_images_[region];
  }

  /// Golden content of any frame except the nonce frame (whose content is
  /// per-session); the nonce frame and frames outside every partition
  /// resolve to the all-zero frame.
  const Frame& golden_frame(std::uint32_t index) const;
  const Frame& zero_frame() const { return zero_frame_; }

  // -- Flat streaming tables ------------------------------------------------

  std::uint32_t total_frames() const { return total_frames_; }
  std::uint32_t words_per_frame() const { return words_per_frame_; }

  /// Architectural register mask of `frame`, identical word-for-word to
  /// `architectural_mask(device, frame)`.
  std::span<const std::uint32_t> mask_words(std::uint32_t frame) const {
    return {mask_table_ + static_cast<std::size_t>(frame) * words_per_frame_,
            words_per_frame_};
  }

  /// Golden frame content with register bits already forced to zero
  /// (`golden & mask`). The nonce frame's slot is all-zero; the verifier
  /// overlays the session nonce.
  std::span<const std::uint32_t> masked_golden_words(std::uint32_t frame) const {
    return {golden_table_ + static_cast<std::size_t>(frame) * words_per_frame_,
            words_per_frame_};
  }

  /// Streaming masked compare: true iff `received` (one frame's words)
  /// agrees with the golden configuration on every mask=1 bit. Not valid
  /// for the nonce frame — its golden content lives in the session.
  bool frame_matches(std::uint32_t frame,
                     std::span<const std::uint32_t> received) const {
    const std::uint32_t* mask =
        mask_table_ + static_cast<std::size_t>(frame) * words_per_frame_;
    const std::uint32_t* golden =
        golden_table_ + static_cast<std::size_t>(frame) * words_per_frame_;
    return masked_words_match(received.data(), mask, golden, words_per_frame_);
  }

  /// The device type's interned register-position table the mask table was
  /// filled from. A built model holds it, so a device provisioned while
  /// only verifiers of its type are alive reuses it instead of deriving it
  /// again; loaded and mapped models read their masks from the file and
  /// hold none (nullptr).
  const std::shared_ptr<const RegisterPositions>& register_positions() const {
    return positions_;
  }

  /// Heap footprint of the model (flat tables + region images), for the
  /// fleet memory accounting in bench_swarm / bench_verifier.
  std::size_t footprint_bytes() const;

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

  std::shared_ptr<const RegisterPositions> positions_;  // built models only
  std::vector<fabric::FrameRange> app_ranges_;
  std::vector<std::pair<fabric::FrameRange, ConfigImage>> static_images_;
  std::vector<ConfigImage> app_images_;
  Frame zero_frame_;

  // Flat streaming tables, total_frames * words_per_frame words each. The
  // accessors read through `mask_table_` / `golden_table_`: for built and
  // heap-loaded models they point at the owning vectors below; for mapped
  // models they point into `map_base_` and the vectors stay empty (which is
  // also what keeps footprint_bytes() honest about heap cost).
  std::vector<std::uint32_t> mask_words_;
  std::vector<std::uint32_t> masked_golden_;  // golden & mask
  const std::uint32_t* mask_table_ = nullptr;
  const std::uint32_t* golden_table_ = nullptr;
  void* map_base_ = nullptr;  // munmap'd by the dtor when non-null
  std::size_t map_len_ = 0;
};

}  // namespace sacha::bitstream
