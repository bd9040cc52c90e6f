// Streaming verifier + shared GoldenModel: the production verifier held to
// the test-only reference (the seed verifier, tests/reference_verifier.hpp)
// on captured transcripts, the attack library's pinned verdicts, the
// schedule-order absorb rule, golden-table regressions, model sharing
// semantics, and the on-disk model cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <utility>

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "attacks/library.hpp"
#include "bitstream/golden_model.hpp"
#include "core/swarm.hpp"
#include "crypto/sha256.hpp"
#include "reference_verifier.hpp"

namespace sacha {
namespace {

namespace bs = sacha::bitstream;

/// A TempDir() path private to the running test instance (its full name
/// plus the pid): ctest runs every instance, parameterised ones included,
/// as its own process, and those processes run concurrently.
std::string private_temp(const std::string& stem,
                         const std::string& suffix = "") {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
#if defined(__unix__)
  name += "_" + std::to_string(::getpid());
#endif
  return ::testing::TempDir() + stem + "_" + name + suffix;
}

// ---- GoldenModel table regressions --------------------------------------

TEST(GoldenModel, MaskTableMatchesPerCallArchitecturalMask) {
  const attacks::AttackEnv env = attacks::AttackEnv::small();
  const auto model = bs::GoldenModel::shared(env.plan, env.static_spec,
                                             env.app_spec);
  const fabric::DeviceModel& device = env.plan.device();
  for (std::uint32_t f = 0; f < device.total_frames(); ++f) {
    const bs::FrameMask per_call = bs::architectural_mask(device, f);
    const auto table = model->mask_words(f);
    ASSERT_EQ(table.size(), per_call.words().size()) << "frame " << f;
    for (std::uint32_t w = 0; w < per_call.size(); ++w) {
      EXPECT_EQ(table[w], per_call.word(w)) << "frame " << f << " word " << w;
    }
  }
}

TEST(GoldenModel, GoldenRowsAreBitGenPartitionsAndZeroElsewhere) {
  // Small device with gaps: static [0,3), dynamic [4,9), static island
  // [10,11), dynamic [12,16); frames 3, 9 and 11 belong to no partition.
  fabric::Floorplan plan(fabric::DeviceModel::small_test_device());
  plan.add_partition({"Stat", fabric::PartitionKind::kStatic, {0, 3}, {}});
  plan.add_partition({"DynA", fabric::PartitionKind::kDynamic, {4, 5}, {}});
  plan.add_partition({"Island", fabric::PartitionKind::kStatic, {10, 1}, {}});
  plan.add_partition({"DynB", fabric::PartitionKind::kDynamic, {12, 4}, {}});
  ASSERT_TRUE(plan.validate().ok());
  const bs::DesignSpec static_spec{"gapped-static", 3};
  const bs::DesignSpec app_spec{"gapped-app", 5};
  const bs::GoldenModel model(plan, static_spec, app_spec);
  const bs::BitGen gen(plan.device());

  std::vector<bs::Frame> expected(plan.device().total_frames(),
                                  bs::Frame(model.words_per_frame()));
  for (const fabric::Partition& p : plan.partitions()) {
    const bs::ConfigImage image = gen.generate(
        p.frames,
        p.kind == fabric::PartitionKind::kStatic ? static_spec : app_spec);
    for (std::uint32_t i = 0; i < p.frames.count; ++i) {
      expected[p.frames.first + i] = image.frames[i];
    }
  }
  ASSERT_EQ(model.nonce_frame(), 15u);
  expected[model.nonce_frame()] = bs::Frame(model.words_per_frame());
  for (std::uint32_t f = 0; f < model.total_frames(); ++f) {
    EXPECT_TRUE(std::ranges::equal(model.golden_words(f), expected[f].words()))
        << "frame " << f;
  }
  EXPECT_TRUE(std::ranges::equal(model.static_words(),
                                 model.golden_words(0, 3)));
}

enum class Table { kMask, kMaskedGolden, kGolden };

/// SHA-256 over one frame-indexed table, each word serialised big-endian.
/// The masked-golden table (golden & mask) is the one the model kept before
/// it held the unmasked golden words.
std::string table_digest(const bs::GoldenModel& model, Table table) {
  crypto::Sha256 sha;
  Bytes row;
  for (std::uint32_t f = 0; f < model.total_frames(); ++f) {
    row.clear();
    const auto golden = model.golden_words(f);
    const auto mask = model.mask_words(f);
    for (std::uint32_t w = 0; w < model.words_per_frame(); ++w) {
      put_u32be(row, table == Table::kMask     ? mask[w]
                     : table == Table::kGolden ? golden[w]
                                               : golden[w] & mask[w]);
    }
    sha.update(row);
  }
  return to_hex(sha.finalize());
}

TEST(GoldenModel, Virtex6TablesMatchPinnedDigests) {
  // The full XC6VLX240T model's tables, pinned: the mask and masked-golden
  // digests at the commit before the per-frame image masks were dropped,
  // the unmasked golden digest from the region images (golden_frame) at the
  // commit before the model kept only its two tables. The verifier compares
  // against these tables alone, so no change to how they are generated or
  // stored may move them.
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6();
  const bs::GoldenModel model(env.plan, env.static_spec, env.app_spec);
  EXPECT_EQ(table_digest(model, Table::kMask),
            "f8ffe15f09077845fccd1e1dcf87fce4fed6f4ede1400db4ed44600d081427ce");
  EXPECT_EQ(table_digest(model, Table::kMaskedGolden),
            "2d1aabe4d4cb224d7d15d30118f56d65b2f4d9dd92bba892501106dcd6b0f0e6");
  EXPECT_EQ(table_digest(model, Table::kGolden),
            "d6a565407372f7ebed50c8c907b21ef02245116e793ae64a90cbd81740011ea6");
  // Two tables of 28,488 frames x 81 words, and nothing else.
  EXPECT_EQ(model.footprint_bytes(), 2u * 9'230'112u);
}

TEST(GoldenModel, RegionStructureMatchesVerifier) {
  const attacks::AttackEnv env = attacks::AttackEnv::small();
  const core::SachaVerifier verifier = env.make_verifier();
  const auto& model = verifier.golden_model();
  EXPECT_EQ(model->nonce_frame(), verifier.nonce_frame_index());
  EXPECT_EQ(model->static_words().data(), verifier.static_image().data());
  EXPECT_EQ(verifier.static_image().size(), 4u * model->words_per_frame());
  EXPECT_GT(model->app_frame_total(), 0u);
  EXPECT_GT(model->footprint_bytes(), 0u);
}

// ---- Sharing semantics ---------------------------------------------------

TEST(GoldenModel, IdenticallyProvisionedVerifiersShareOneModel) {
  const attacks::AttackEnv env_a = attacks::AttackEnv::small(100);
  const attacks::AttackEnv env_b = attacks::AttackEnv::small(200);  // same plan/specs
  const core::SachaVerifier a = env_a.make_verifier();
  const core::SachaVerifier b = env_b.make_verifier();
  EXPECT_EQ(a.golden_model().get(), b.golden_model().get())
      << "fleet members with one device type must intern one golden model";
}

TEST(GoldenModel, DifferentAppSpecGetsDifferentModel) {
  attacks::AttackEnv env = attacks::AttackEnv::small();
  core::SachaVerifier a = env.make_verifier();
  env.app_spec = bs::DesignSpec{"another-app", 3};
  const core::SachaVerifier b = env.make_verifier();
  EXPECT_NE(a.golden_model().get(), b.golden_model().get());

  // Secure code update re-interns: a now agrees with b.
  a.set_app_spec(bs::DesignSpec{"another-app", 3});
  EXPECT_EQ(a.golden_model().get(), b.golden_model().get());
}

TEST(GoldenModel, ProverBesideOnlyAVerifierSharesTheModelsRegisterTable) {
  // A built model fills its masks from the device type's interned register
  // positions and holds them, so a prover provisioned while only a
  // verifier of the type is alive reuses that table instead of deriving
  // every frame's mask again.
  const attacks::AttackEnv env = attacks::AttackEnv::small(31);
  const core::SachaVerifier verifier = env.make_verifier();
  const auto& positions = verifier.golden_model()->register_positions();
  ASSERT_NE(positions, nullptr);
  const core::SachaProver prover = env.make_prover();
  EXPECT_EQ(prover.memory().register_positions().get(), positions.get());
}

TEST(GoldenModel, CacheEntriesDieWithTheirLastVerifier) {
  const std::size_t before = bs::GoldenModel::live_cache_entries();
  {
    attacks::AttackEnv unique_env = attacks::AttackEnv::small();
    unique_env.app_spec = bs::DesignSpec{"cache-lifetime-probe", 42};
    const core::SachaVerifier v = unique_env.make_verifier();
    EXPECT_GE(bs::GoldenModel::live_cache_entries(), before + 1);
  }
  EXPECT_EQ(bs::GoldenModel::live_cache_entries(), before)
      << "weak cache must not outlive the verifiers";
}

// ---- On-disk model cache -------------------------------------------------

TEST(GoldenModelCache, SaveLoadRoundTripIsBitIdentical) {
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"roundtrip-probe", 7};
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  const std::string path = private_temp("sacha_roundtrip", ".sgm");
  ASSERT_TRUE(built.save(path, env.plan));
  const auto loaded =
      bs::GoldenModel::load(path, env.plan, env.static_spec, env.app_spec);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(*loaded == built)
      << "loaded model must be bit-identical to the built one";
  EXPECT_EQ(loaded->footprint_bytes(), built.footprint_bytes());
  std::filesystem::remove(path);
}

TEST(GoldenModelCache, LoadRejectsWrongIdentityAndCorruption) {
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"reject-probe", 9};
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  const std::string path = private_temp("sacha_reject", ".sgm");
  ASSERT_TRUE(built.save(path, env.plan));
  // A file saved for one fleet configuration must never load for another.
  const bs::DesignSpec other_app{"reject-probe-other", 9};
  EXPECT_EQ(bs::GoldenModel::load(path, env.plan, env.static_spec, other_app),
            nullptr);
  // Truncation must fail cleanly, not produce a quietly-wrong model.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_EQ(bs::GoldenModel::load(path, env.plan, env.static_spec,
                                  env.app_spec),
            nullptr);
  std::filesystem::remove(path);
}

// ---- Corruption matrix: load() and load_mapped() share one decoder, so
// both must reject every malformed shape identically. -----------------------

using ModelLoader = std::shared_ptr<const bs::GoldenModel> (*)(
    const std::string&, const fabric::Floorplan&, const bs::DesignSpec&,
    const bs::DesignSpec&);

struct NamedLoader {
  const char* name;
  ModelLoader load;
};

// Prints the name only: the function pointer would put an address, which
// changes with every build, into the test names.
void PrintTo(const NamedLoader& loader, std::ostream* os) {
  *os << loader.name;
}

class GoldenModelCorruption : public ::testing::TestWithParam<NamedLoader> {};

TEST_P(GoldenModelCorruption, TruncationAtEveryBoundaryFailsCleanly) {
  const ModelLoader load = GetParam().load;
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"corruption-matrix", 11};
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  const std::string good = private_temp("sacha_matrix_good", ".sgm");
  ASSERT_TRUE(built.save(good, env.plan));
  std::ifstream in(good, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(bytes.empty());

  // Cuts at every header field edge plus every 64-byte alignment boundary
  // — the format pads both flat tables to 64-byte offsets, so this sweep
  // lands on the exact start/end of every section.
  std::vector<std::size_t> cuts = {0, 1, 7,  8,  11, 12, 19, 20,
                                   83, 84, 88, 92, 96, 100};
  for (std::size_t at = 64; at < bytes.size(); at += 64) cuts.push_back(at);
  cuts.push_back(bytes.size() - 4);
  cuts.push_back(bytes.size() - 1);

  const std::string path = private_temp("sacha_matrix_cut", ".sgm");
  for (const std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_EQ(load(path, env.plan, env.static_spec, env.app_spec), nullptr)
        << "truncated at byte " << cut << " of " << bytes.size();
  }
  std::filesystem::remove(path);
  std::filesystem::remove(good);
}

TEST_P(GoldenModelCorruption, FlippedDigestByteAndGarbageTailReject) {
  const ModelLoader load = GetParam().load;
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"corruption-flip", 13};
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  const std::string good = private_temp("sacha_flip_good", ".sgm");
  ASSERT_TRUE(built.save(good, env.plan));
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  const std::string path = private_temp("sacha_flip", ".sgm");
  const auto write_variant = [&](const std::vector<char>& v) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(v.data(), static_cast<std::streamsize>(v.size()));
  };

  // The identity digest is the hex string right after magic+version+length:
  // flipping any byte inside it must fail the identity check.
  {
    std::vector<char> flipped = bytes;
    flipped[20] ^= 0x01;   // first digest hex char
    flipped[83] ^= 0x01;   // last digest hex char
    write_variant(flipped);
    EXPECT_EQ(load(path, env.plan, env.static_spec, env.app_spec), nullptr);
  }
  // Garbage-tailed files must be rejected by the exact-length check even
  // though every section parsed — a format disagreement, not extra slack.
  {
    std::vector<char> tailed = bytes;
    tailed.push_back(0x00);
    write_variant(tailed);
    EXPECT_EQ(load(path, env.plan, env.static_spec, env.app_spec), nullptr);
    tailed.insert(tailed.end(), 63, 0x5a);
    write_variant(tailed);
    EXPECT_EQ(load(path, env.plan, env.static_spec, env.app_spec), nullptr);
  }
  // The pristine bytes still load — the matrix is testing the corruption,
  // not the harness.
  write_variant(bytes);
  const auto ok = load(path, env.plan, env.static_spec, env.app_spec);
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(*ok == built);
  std::filesystem::remove(path);
  std::filesystem::remove(good);
}

INSTANTIATE_TEST_SUITE_P(
    HeapAndMapped, GoldenModelCorruption,
    ::testing::Values(
        NamedLoader{"load", &bs::GoldenModel::load},
        NamedLoader{"load_mapped", &bs::GoldenModel::load_mapped}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- mmap-shared models ---------------------------------------------------

TEST(GoldenModelMapped, LoadMappedIsBitIdenticalAndBorrowsTables) {
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"mapped-probe", 17};
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  const std::string path = private_temp("sacha_mapped", ".sgm");
  ASSERT_TRUE(built.save(path, env.plan));
  const auto mapped =
      bs::GoldenModel::load_mapped(path, env.plan, env.static_spec,
                                   env.app_spec);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(*mapped == built);
  EXPECT_EQ(mapped->tables_mapped(), bs::GoldenModel::mapping_supported())
      << "tables must borrow from the mapping when the build can mmap";
  if (mapped->tables_mapped()) {
    // Borrowed lanes must still be 4-byte aligned for the SIMD compare.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->mask_words(0).data()) %
                  alignof(std::uint32_t),
              0u);
    // The mapped footprint excludes the tables (they are page cache, not
    // heap) — the RSS-flat property bench_shard measures.
    EXPECT_LT(mapped->footprint_bytes(), built.footprint_bytes());
  }
  std::filesystem::remove(path);
}

/// Bytes the C heap has handed out (0 where the allocator does not say).
std::size_t heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(GoldenModelMapped, MappedVirtex6ModelKeepsItsTablesOffTheHeap) {
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6();
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  const std::string path = private_temp("sacha_mapped_v6", ".sgm");
  ASSERT_TRUE(built.save(path, env.plan));
  const auto loaded =
      bs::GoldenModel::load(path, env.plan, env.static_spec, env.app_spec);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->footprint_bytes(), 2u * 9'230'112u);

  const std::size_t heap_before = heap_in_use();
  const auto mapped = bs::GoldenModel::load_mapped(path, env.plan,
                                                   env.static_spec,
                                                   env.app_spec);
  const std::size_t heap_after = heap_in_use();
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(*mapped == built);
  if (mapped->tables_mapped()) {
    EXPECT_EQ(mapped->footprint_bytes(), 0u);
    EXPECT_LT(heap_after > heap_before ? heap_after - heap_before : 0,
              std::size_t{1} << 20);
  }
  std::filesystem::remove(path);
}

TEST(GoldenModelCache, VersionThreeFileIsRejectedAndRebuilt) {
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"version-probe", 37};
  const std::string dir = private_temp("sacha_version_cache");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" +
      bs::GoldenModel::cache_digest(env.plan, env.static_spec, env.app_spec) +
      ".sgm";
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  ASSERT_TRUE(built.save(path, env.plan));
  {
    // The format version is the word after the 8-byte magic.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t version = 3;
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  EXPECT_EQ(bs::GoldenModel::load(path, env.plan, env.static_spec,
                                  env.app_spec),
            nullptr);
  EXPECT_EQ(bs::GoldenModel::load_mapped(path, env.plan, env.static_spec,
                                         env.app_spec),
            nullptr);

  bs::GoldenModel::CacheSource source;
  auto rebuilt = bs::GoldenModel::shared_cached(
      env.plan, env.static_spec, env.app_spec, dir, &source,
      /*prefer_mapped=*/true);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(source, bs::GoldenModel::CacheSource::kBuilt);
  EXPECT_TRUE(*rebuilt == built);
  rebuilt.reset();
  // The rebuild persisted the current format over the old file.
  const auto reloaded =
      bs::GoldenModel::load(path, env.plan, env.static_spec, env.app_spec);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_TRUE(*reloaded == built);
  std::filesystem::remove_all(dir);
}

#if defined(__unix__)
TEST(GoldenModelMapped, ResaveKeepsAMappedReadersPages) {
  // A colocated process holds the cache file mapped while this one
  // re-persists a different model to the same path. The reader must keep
  // reading its own contents on every page: no SIGBUS from a truncation,
  // no bytes of the new file.
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"resave-probe", 23};
  const bs::GoldenModel built(env.plan, env.static_spec, env.app_spec);
  const bs::DesignSpec other_app{"resave-probe-replacement", 29};
  const bs::GoldenModel replacement(env.plan, env.static_spec, other_app);
  const std::string path = private_temp("sacha_resave", ".sgm");
  ASSERT_TRUE(built.save(path, env.plan));

  int to_parent[2];
  int to_child[2];
  ASSERT_EQ(::pipe(to_parent), 0);
  ASSERT_EQ(::pipe(to_child), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const auto mapped = bs::GoldenModel::load_mapped(
        path, env.plan, env.static_spec, env.app_spec);
    char byte = mapped != nullptr ? 1 : 0;
    if (::write(to_parent[1], &byte, 1) != 1) ::_exit(3);
    if (::read(to_child[0], &byte, 1) != 1) ::_exit(4);
    // The whole-model compare reads every page of both mapped tables.
    ::_exit(mapped != nullptr && *mapped == built ? 0 : 1);
  }
  char mapped = 0;
  ASSERT_EQ(::read(to_parent[0], &mapped, 1), 1);
  EXPECT_EQ(mapped, 1) << "child could not map the cache file";
  EXPECT_TRUE(replacement.save(path, env.plan));
  ASSERT_EQ(::write(to_child[1], &mapped, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status))
      << "mapped reader died with signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "mapped reader saw pages of the re-saved file";
  for (const int fd : {to_parent[0], to_parent[1], to_child[0], to_child[1]}) {
    ::close(fd);
  }
  // The path itself now holds the replacement.
  const auto reloaded =
      bs::GoldenModel::load(path, env.plan, env.static_spec, other_app);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_TRUE(*reloaded == replacement);
  std::filesystem::remove(path);
}
#endif

TEST(GoldenModelMapped, SharedCachedPrefersMappingAndReportsKMapped) {
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"mapped-cache-probe", 19};
  const std::string dir =
      private_temp("sacha_mapped_cache") +
      std::filesystem::path::preferred_separator;
  std::filesystem::create_directories(dir);

  bs::GoldenModel::CacheSource source;
  // Cold: builds and persists; the intern entry dies with `first`.
  {
    auto first = bs::GoldenModel::shared_cached(
        env.plan, env.static_spec, env.app_spec, dir, &source,
        /*prefer_mapped=*/true);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(source, bs::GoldenModel::CacheSource::kBuilt);
  }
  // Warm restart: the disk tier maps the saved file.
  auto remapped = bs::GoldenModel::shared_cached(
      env.plan, env.static_spec, env.app_spec, dir, &source,
      /*prefer_mapped=*/true);
  ASSERT_NE(remapped, nullptr);
  if (bs::GoldenModel::mapping_supported()) {
    EXPECT_EQ(source, bs::GoldenModel::CacheSource::kMapped);
    EXPECT_TRUE(remapped->tables_mapped());
  } else {
    EXPECT_EQ(source, bs::GoldenModel::CacheSource::kLoaded);
    EXPECT_FALSE(remapped->tables_mapped());
  }
  // A mapped model drives a verifier exactly like a built one.
  core::SachaVerifier verifier(env.plan, remapped, env.key, env.seed,
                               env.verifier_options);
  core::SachaProver prover = env.make_prover();
  const auto report = core::run_attestation(verifier, prover);
  EXPECT_TRUE(report.verdict.ok());
  std::filesystem::remove_all(dir);
}

TEST(GoldenModelCache, SharedCachedHitsInternedThenDiskThenBuild) {
  attacks::AttackEnv env = attacks::AttackEnv::small();
  env.app_spec = bs::DesignSpec{"three-tier-probe", 11};
  const std::string dir = private_temp("sacha_model_cache");
  std::filesystem::remove_all(dir);

  bs::GoldenModel::CacheSource source;
  auto first = bs::GoldenModel::shared_cached(env.plan, env.static_spec,
                                              env.app_spec, dir, &source);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(source, bs::GoldenModel::CacheSource::kBuilt);
  const std::string file =
      dir + "/" +
      bs::GoldenModel::cache_digest(env.plan, env.static_spec, env.app_spec) +
      ".sgm";
  EXPECT_TRUE(std::filesystem::exists(file)) << "build must persist";

  // Alive model: the process intern cache answers.
  auto second = bs::GoldenModel::shared_cached(env.plan, env.static_spec,
                                               env.app_spec, dir, &source);
  EXPECT_EQ(source, bs::GoldenModel::CacheSource::kInterned);
  EXPECT_EQ(second.get(), first.get());

  // Simulated restart: drop every reference, the disk tier answers and the
  // loaded model is bit-identical to the built one.
  const bs::GoldenModel built_copy(env.plan, env.static_spec, env.app_spec);
  first.reset();
  second.reset();
  auto reloaded = bs::GoldenModel::shared_cached(env.plan, env.static_spec,
                                                 env.app_spec, dir, &source);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(source, bs::GoldenModel::CacheSource::kLoaded);
  EXPECT_TRUE(*reloaded == built_copy);
  reloaded.reset();
  std::filesystem::remove_all(dir);
}

TEST(GoldenModelCache, WarmStartedVerifierAttests) {
  // shared_cached pre-populates the intern cache, so a verifier provisioned
  // afterwards reuses the loaded model — the warm-start path end-to-end.
  attacks::AttackEnv env = attacks::AttackEnv::small(91);
  const std::string dir = private_temp("sacha_warm_start");
  std::filesystem::remove_all(dir);
  bs::GoldenModel::CacheSource source;
  // Cold start persists; the simulated restart below loads it.
  bs::GoldenModel::shared_cached(env.plan, env.static_spec, env.app_spec, dir,
                                 &source)
      .reset();
  auto warm = bs::GoldenModel::shared_cached(env.plan, env.static_spec,
                                             env.app_spec, dir, &source);
  EXPECT_EQ(source, bs::GoldenModel::CacheSource::kLoaded);
  core::SachaVerifier verifier = env.make_verifier();
  EXPECT_EQ(verifier.golden_model().get(), warm.get())
      << "verifier must intern the warm-started model";
  core::SachaProver prover = env.make_prover();
  const auto report = core::run_attestation(verifier, prover);
  EXPECT_TRUE(report.verdict.ok());
  std::filesystem::remove_all(dir);
}

// ---- Streaming == retained (the reference verifier) ---------------------

/// One session's responses, one per command of the schedule the verifier
/// froze at begin(). A test-only driver captures them: each command goes
/// through the prover half's boundary rule (ProverSession::note_command)
/// and SachaProver::handle, with no channel in between.
using Transcript = std::vector<std::optional<core::Response>>;

/// Rewrites the captured response of command `index` (drop it, forge it).
using TranscriptEdit =
    std::function<void(std::size_t, std::optional<core::Response>&)>;

Transcript capture_transcript(
    const core::SachaVerifier& verifier, core::SachaProver& prover,
    const core::SessionOptions& options,
    std::function<void(core::SachaProver&)> after_config = nullptr,
    const TranscriptEdit& edit = nullptr) {
  core::ProverSession prover_half(prover, std::move(after_config),
                                  options.seed,
                                  options.register_flip_probability);
  Transcript transcript(verifier.command_count());
  for (std::size_t i = 0; i < transcript.size(); ++i) {
    const core::Command command = verifier.command(i);
    prover_half.note_command(command.type);
    transcript[i] = prover.handle(command).response;
    if (edit) edit(i, transcript[i]);
  }
  return transcript;
}

struct Judged {
  core::SachaVerifier::Verdict verdict;
  std::optional<crypto::Mac> mac;  // H_Vrf after finish()
};

/// Feeds `transcript`, in command order, to the begun production verifier
/// and to a reference verifier of the same schedule, and expects the two
/// to agree on the verdict flags, kind, detail and H_Vrf. Returns the
/// production verifier's judgement.
Judged expect_matches_reference(core::SachaVerifier& verifier,
                                const crypto::AesKey& key,
                                const Transcript& transcript) {
  testing::ReferenceVerifier reference(verifier, key);
  for (std::size_t i = 0; i < transcript.size(); ++i) {
    reference.on_response(i, transcript[i]);
    (void)verifier.on_response(i, transcript[i]);
  }
  const core::SachaVerifier::Verdict want = reference.finish();
  Judged got{verifier.finish(), verifier.expected_mac()};
  EXPECT_EQ(got.verdict.protocol_ok, want.protocol_ok);
  EXPECT_EQ(got.verdict.mac_ok, want.mac_ok);
  EXPECT_EQ(got.verdict.config_ok, want.config_ok);
  EXPECT_EQ(got.verdict.kind, want.kind);
  EXPECT_EQ(got.verdict.detail, want.detail);
  EXPECT_EQ(got.mac, reference.expected_mac());
  return got;
}

/// Captures one session of a fresh verifier/prover pair of `env` and holds
/// the production verifier to the reference on it.
Judged run_against_reference(
    const attacks::AttackEnv& env,
    std::function<void(core::SachaProver&)> after_config = nullptr,
    const TranscriptEdit& edit = nullptr, bool genuine_key = true) {
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover(genuine_key);
  verifier.begin();
  const Transcript transcript =
      capture_transcript(verifier, prover, env.session_options,
                         std::move(after_config), edit);
  return expect_matches_reference(verifier, env.key, transcript);
}

/// Index of the first readback command of the verifier's frozen schedule.
std::size_t first_readback(const core::SachaVerifier& verifier) {
  return verifier.command_count() - 1 - verifier.readback_steps().size();
}

/// The verdict of every §7.2 attack on AttackEnv::small(77), pinned where
/// the streaming and retained modes were asserted bit-identical on every
/// field below.
struct PinnedOutcome {
  const char* name;
  attacks::AttackResult result;
  bool protocol_ok;
  bool mac_ok;
  bool config_ok;
  const char* detail;
  const char* evidence;
};

constexpr const char* kMacMismatch =
    "MAC mismatch: device does not hold the key or data was modified";

const PinnedOutcome kPinnedSuite[] = {
    {"dynpart-tamper", attacks::AttackResult::kDetected, true, true, false,
     "configuration mismatch at frame 5",
     "masked compare caught the modified dynamic frame (configuration "
     "mismatch at frame 5)"},
    {"statpart-tamper", attacks::AttackResult::kDetected, true, true, false,
     "configuration mismatch at frame 0",
     "full-memory readback covers the static partition too (configuration "
     "mismatch at frame 0)"},
    {"impersonation", attacks::AttackResult::kDetected, true, false, true,
     kMacMismatch,
     "MAC keyed by the PUF-bound device key (MAC mismatch: device does not "
     "hold the key or data was modified)"},
    {"proxy-mac", attacks::AttackResult::kDetected, true, false, true,
     kMacMismatch,
     "proxy cannot produce MAC_K without the shared key (MAC mismatch: "
     "device does not hold the key or data was modified)"},
    {"replay", attacks::AttackResult::kDetected, true, true, false,
     "configuration mismatch at frame 5",
     "fresh nonce and fresh readback order invalidate the recorded "
     "transcript (configuration mismatch at frame 5)"},
    {"nonce-freeze", attacks::AttackResult::kDetected, true, true, false,
     "configuration mismatch at frame 15",
     "stale nonce frame fails the masked golden compare (configuration "
     "mismatch at frame 15)"},
    {"bram-staging", attacks::AttackResult::kPrevented, true, true, true,
     "attested",
     "stash destroyed: BRAM-content frames are overwritten and read back "
     "like all configuration memory (toy device: capacity alone would have "
     "allowed the stash)"},
    {"hidden-module", attacks::AttackResult::kPrevented, true, true, true,
     "attested",
     "the full-DynMem overwrite erased the parked module; full readback "
     "confirmed frame 14 now holds the intended application (first dyn "
     "frame 4)"},
    {"update-injection", attacks::AttackResult::kDetected, true, true, false,
     "configuration mismatch at frame 6",
     "readback reflects the injected content, golden compare rejects it "
     "(configuration mismatch at frame 6)"},
    {"external-tap", attacks::AttackResult::kDetected, true, true, false,
     "configuration mismatch at frame 0",
     "unexpected connections on pin(s): 2 (configuration mismatch at frame "
     "0)"},
};

TEST(StreamingVerifier, AttackLibraryVerdictsMatchPinnedTable) {
  const auto suite = attacks::standard_suite();
  ASSERT_EQ(suite.size(), std::size(kPinnedSuite));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const PinnedOutcome& want = kPinnedSuite[i];
    const attacks::AttackOutcome got =
        suite[i]->run(attacks::AttackEnv::small(77));
    ASSERT_EQ(suite[i]->name(), want.name);
    EXPECT_EQ(got.result, want.result) << want.name;
    EXPECT_EQ(got.verdict.protocol_ok, want.protocol_ok) << want.name;
    EXPECT_EQ(got.verdict.mac_ok, want.mac_ok) << want.name;
    EXPECT_EQ(got.verdict.config_ok, want.config_ok) << want.name;
    EXPECT_EQ(got.verdict.detail, want.detail) << want.name;
    EXPECT_EQ(got.evidence, want.evidence) << want.name;
  }
}

TEST(StreamingVerifier, HonestSessionMatchesRetained) {
  const Judged got = run_against_reference(attacks::AttackEnv::small(321));
  EXPECT_TRUE(got.verdict.ok()) << got.verdict.detail;
  EXPECT_TRUE(got.mac.has_value());
}

TEST(StreamingVerifier, LossyReliableRetransmitRunMatchesRetained) {
  // The channel never changes what the device reads back: a lossy reliable
  // session's verdict and H_Vrf equal the reference's on the transcript
  // captured without a channel.
  const attacks::AttackEnv env = attacks::AttackEnv::small(321);
  core::SachaVerifier reference_verifier = env.make_verifier();
  core::SachaProver reference_prover = env.make_prover();
  reference_verifier.begin();
  const Transcript transcript = capture_transcript(
      reference_verifier, reference_prover, env.session_options);
  testing::ReferenceVerifier reference(reference_verifier, env.key);
  for (std::size_t i = 0; i < transcript.size(); ++i) {
    reference.on_response(i, transcript[i]);
  }
  const core::SachaVerifier::Verdict want = reference.finish();
  ASSERT_TRUE(want.ok()) << want.detail;

  core::SessionOptions session = env.session_options;
  session.reliable = true;
  session.channel.loss_probability = 0.08;
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  const core::AttestationReport report =
      core::run_attestation(verifier, prover, session);
  EXPECT_GT(report.retransmissions, 0u)
      << "lossy channel should force retransmissions";
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  EXPECT_EQ(report.verdict.detail, want.detail);
  EXPECT_EQ(verifier.expected_mac(), reference.expected_mac());
}

TEST(StreamingVerifier, DroppedReadbackResponseMatchesRetained) {
  int frame_data = 0;
  const Judged got = run_against_reference(
      attacks::AttackEnv::small(321), nullptr,
      [&frame_data](std::size_t, std::optional<core::Response>& response) {
        if (response.has_value() &&
            response->type == core::ResponseType::kFrameData &&
            frame_data++ == 3) {
          response.reset();  // readback step 3 is lost
        }
      });
  EXPECT_FALSE(got.verdict.ok());
  EXPECT_EQ(got.verdict.kind, core::FailureKind::kTimeoutExhausted);
  EXPECT_EQ(got.verdict.detail, "missing or bad readback response at step 3");
  EXPECT_FALSE(got.mac.has_value());
}

TEST(StreamingVerifier, TamperWindowMatchesRetained) {
  const Judged got = run_against_reference(
      attacks::AttackEnv::small(321), [](core::SachaProver& p) {
        bitstream::Frame f = p.memory().config_frame(6);
        f.flip_bit(2);  // a configuration-visible bit flip after config phase
        p.memory().write_frame(6, f);
      });
  EXPECT_FALSE(got.verdict.config_ok);
}

/// Single-event upsets on *register* (mask=0) bits must stay invisible to
/// the masked compare while *configuration* bit flips are detected, with
/// the reference's details.
TEST(StreamingVerifier, SeuOnRegisterBitIgnoredOnConfigBitDetected) {
  for (const bool flip_config_bit : {false, true}) {
    const Judged got = run_against_reference(
        attacks::AttackEnv::small(321),
        [flip_config_bit](core::SachaProver& p) {
          const fabric::DeviceModel& device = p.memory().device();
          const bs::FrameMask mask = bs::architectural_mask(device, 5);
          // Find a bit of the wanted kind: config (mask=1) or register
          // (mask=0).
          for (std::uint32_t b = 0; b < mask.bit_count(); ++b) {
            if (mask.get_bit(b) == flip_config_bit) {
              bitstream::Frame f = p.memory().config_frame(5);
              f.flip_bit(b);
              p.memory().write_frame(5, f);
              return;
            }
          }
          FAIL() << "no bit of the requested kind in frame 5";
        });
    if (flip_config_bit) {
      EXPECT_FALSE(got.verdict.config_ok);
    } else {
      // A register-bit SEU changes the raw words (and thus the MAC input on
      // both sides consistently) but not the masked compare.
      EXPECT_TRUE(got.verdict.ok()) << got.verdict.detail;
    }
  }
}

TEST(StreamingVerifier, ForgedMacMatchesRetained) {
  const Judged got = run_against_reference(
      attacks::AttackEnv::small(321), nullptr,
      [](std::size_t, std::optional<core::Response>& response) {
        if (response.has_value() &&
            response->type == core::ResponseType::kMacValue) {
          response->mac[0] ^= 0x01;
        }
      });
  EXPECT_FALSE(got.verdict.mac_ok);
  EXPECT_EQ(got.verdict.kind, core::FailureKind::kMacMismatch);
}

TEST(StreamingVerifier, NonGenuineKeyMatchesRetained) {
  const Judged got = run_against_reference(attacks::AttackEnv::small(321),
                                           nullptr, nullptr,
                                           /*genuine_key=*/false);
  EXPECT_FALSE(got.verdict.mac_ok);
  EXPECT_TRUE(got.verdict.config_ok);
  EXPECT_EQ(got.verdict.detail, kMacMismatch);
}

TEST(StreamingVerifier, RefreshSessionMatchesRetained) {
  const attacks::AttackEnv env = attacks::AttackEnv::small(77);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  const auto install = core::run_attestation(verifier, prover);
  ASSERT_TRUE(install.verdict.ok()) << install.verdict.detail;
  verifier.set_refresh_only(true);
  verifier.begin();
  const Transcript transcript =
      capture_transcript(verifier, prover, env.session_options);
  const Judged got = expect_matches_reference(verifier, env.key, transcript);
  EXPECT_TRUE(got.verdict.ok()) << got.verdict.detail;
}

// ---- The schedule-order absorb rule --------------------------------------

TEST(StreamingVerifier, ResponseAheadOfTheChainIsADecodeError) {
  const attacks::AttackEnv env = attacks::AttackEnv::small(77);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  verifier.begin();
  Transcript transcript =
      capture_transcript(verifier, prover, env.session_options);
  const std::size_t readback = first_readback(verifier);
  for (std::size_t i = 0; i < readback; ++i) {
    ASSERT_TRUE(verifier.on_response(i, std::move(transcript[i])).ok());
  }
  // Step 1 before step 0: the chain is at step 0, so step 1 is never kept.
  EXPECT_FALSE(
      verifier.on_response(readback + 1, std::move(transcript[readback + 1]))
          .ok());
  for (std::size_t i = readback; i < transcript.size(); ++i) {
    if (i != readback + 1) {
      (void)verifier.on_response(i, std::move(transcript[i]));
    }
  }
  const auto verdict = verifier.finish();
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.kind, core::FailureKind::kDecodeError);
  EXPECT_EQ(verdict.detail,
            "readback response at step 1 arrived before step 0");
  EXPECT_FALSE(verifier.expected_mac().has_value());
}

TEST(StreamingVerifier, StepAfterAFailedStepIsDropped) {
  const attacks::AttackEnv env = attacks::AttackEnv::small(77);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  verifier.begin();
  Transcript transcript =
      capture_transcript(verifier, prover, env.session_options);
  const std::size_t readback = first_readback(verifier);
  const std::size_t mac = transcript.size() - 1;
  for (std::size_t i = 0; i < readback; ++i) {
    ASSERT_TRUE(verifier.on_response(i, std::move(transcript[i])).ok());
  }
  // Step 0 is lost. Every later step is ahead of the stalled chain and is
  // dropped unread, even a malformed or repeated one.
  EXPECT_FALSE(verifier.on_response(readback, std::nullopt).ok());
  core::Response malformed{.type = core::ResponseType::kFrameData};
  EXPECT_FALSE(verifier.on_response(readback + 2, malformed).ok());
  for (std::size_t i = readback + 1; i < mac; ++i) {
    EXPECT_FALSE(verifier.on_response(i, transcript[i]).ok()) << "index " << i;
  }
  EXPECT_FALSE(verifier.on_response(readback + 1, transcript[readback + 1]).ok());
  ASSERT_TRUE(verifier.on_response(mac, std::move(transcript[mac])).ok());
  const auto verdict = verifier.finish();
  EXPECT_EQ(verdict.kind, core::FailureKind::kTimeoutExhausted);
  EXPECT_EQ(verdict.detail, "missing or bad readback response at step 0");
  EXPECT_FALSE(verifier.expected_mac().has_value());
}

TEST(StreamingVerifier, DuplicateReadbackResponseIsAProtocolError) {
  attacks::AttackEnv env = attacks::AttackEnv::small(77);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  verifier.begin();
  const std::size_t n = verifier.command_count();
  std::optional<core::Response> dup;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    auto response = prover.handle(verifier.command(i)).response;
    if (i + 2 == n) dup = response;  // last readback step
    ASSERT_TRUE(verifier.on_response(i, std::move(response)).ok());
  }
  ASSERT_TRUE(dup.has_value());
  EXPECT_FALSE(verifier.on_response(n - 2, std::move(dup)).ok());
  EXPECT_FALSE(verifier.finish().ok());
}

// ---- Fleet-level memory accounting --------------------------------------

TEST(SwarmGoldenModel, HomogeneousFleetSharesOneModel) {
  constexpr std::size_t kFleet = 16;
  std::deque<attacks::AttackEnv> envs;
  std::deque<core::SachaVerifier> verifiers;
  std::deque<core::SachaProver> provers;
  std::vector<core::SwarmMember> members;
  for (std::size_t i = 0; i < kFleet; ++i) {
    envs.push_back(attacks::AttackEnv::small(7000 + i));
    verifiers.push_back(envs.back().make_verifier());
    provers.push_back(envs.back().make_prover());
  }
  for (std::size_t i = 0; i < kFleet; ++i) {
    members.push_back(core::SwarmMember{"node-" + std::to_string(i),
                                        &verifiers[i], &provers[i], {}});
  }
  const core::SwarmReport report = core::attest_swarm(members);
  EXPECT_TRUE(report.all_attested());
  EXPECT_EQ(report.distinct_golden_models, 1u)
      << "one device type must intern exactly one golden model";
  EXPECT_EQ(report.unshared_golden_model_bytes,
            kFleet * report.golden_model_bytes);
}

// ---- Batched readback (§6.1 buffer-size trade-off) -----------------------

struct BatchedRun {
  core::AttestationReport report;
  std::optional<crypto::Mac> mac;  // H_Vrf after finish()
};

attacks::AttackEnv batched_env(std::uint32_t per) {
  attacks::AttackEnv env = attacks::AttackEnv::small(321);
  env.verifier_options.order = core::ReadbackOrder::kSequentialFromZero;
  env.verifier_options.frames_per_readback = per;
  return env;
}

BatchedRun run_batched(std::uint32_t per,
                       const core::SessionHooks& hooks = {},
                       core::SessionOptions session = {}) {
  const attacks::AttackEnv env = batched_env(per);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  BatchedRun out;
  out.report = core::run_attestation(verifier, prover, session, hooks);
  out.mac = verifier.expected_mac();
  return out;
}

TEST(BatchedReadback, MacIsInvariantAcrossBatchWidths) {
  // The MAC absorbs raw frame words in readback order with no per-command
  // framing, so coalescing k frames per ICAP_readback must not change
  // H_Vrf (and the device's H_Prv, or mac_ok would flip).
  const BatchedRun base = run_batched(1);
  ASSERT_TRUE(base.report.verdict.ok()) << base.report.verdict.detail;
  ASSERT_TRUE(base.mac.has_value());
  std::uint64_t prev_commands = base.report.commands_sent;
  for (const std::uint32_t per : {2u, 4u, 8u}) {
    const BatchedRun batched = run_batched(per);
    ASSERT_TRUE(batched.report.verdict.ok())
        << "per=" << per << ": " << batched.report.verdict.detail;
    ASSERT_TRUE(batched.mac.has_value()) << "per=" << per;
    EXPECT_TRUE(*batched.mac == *base.mac)
        << "per=" << per << ": batch width changed the transcript MAC";
    EXPECT_LT(batched.report.commands_sent, prev_commands)
        << "per=" << per << ": wider batches must need fewer commands";
    prev_commands = batched.report.commands_sent;
  }
}

TEST(BatchedReadback, StreamingMatchesRetainedWhenBatched) {
  const Judged got = run_against_reference(batched_env(4));
  EXPECT_TRUE(got.verdict.ok()) << got.verdict.detail;
  ASSERT_TRUE(got.mac.has_value());
  const BatchedRun session = run_batched(4);
  ASSERT_TRUE(session.mac.has_value());
  EXPECT_TRUE(*got.mac == *session.mac);
}

TEST(BatchedReadback, TamperIsDetectedAtEveryBatchWidth) {
  core::SessionHooks hooks;
  hooks.after_config = [](core::SachaProver& prover) {
    bs::Frame frame = prover.memory().config_frame(7);
    frame.flip_bit(40);
    prover.memory().write_frame(7, frame);
  };
  for (const std::uint32_t per : {1u, 2u, 4u, 8u}) {
    const BatchedRun run = run_batched(per, hooks);
    EXPECT_FALSE(run.report.verdict.ok())
        << "per=" << per << ": tampered frame slipped through a batch";
    EXPECT_FALSE(run.report.verdict.config_ok) << "per=" << per;
  }
}

TEST(BatchedReadback, LossyReliableChannelAttestsBatched) {
  core::SessionOptions session;
  session.channel.loss_probability = 0.2;
  session.seed = 99;
  session.reliable = true;
  session.max_retries = 16;
  session.retransmit_timeout = 50 * sim::kMicrosecond;
  const BatchedRun run = run_batched(4, {}, session);
  EXPECT_TRUE(run.report.verdict.ok()) << run.report.verdict.detail;
  EXPECT_GT(run.report.messages_lost, 0u)
      << "20% loss over a full session should drop something";
  EXPECT_GT(run.report.retransmissions, 0u);
}

}  // namespace
}  // namespace sacha
