#include "update/manifest.hpp"

#include <charconv>
#include <sstream>
#include <vector>

#include "crypto/lamport.hpp"

namespace sacha::update {

namespace {

constexpr std::string_view kManifestDomain = "sacha-update-manifest";

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  while (!text.empty()) {
    const std::size_t pos = text.find(sep);
    parts.push_back(text.substr(0, pos));
    if (pos == std::string_view::npos) break;
    text.remove_prefix(pos + 1);
  }
  return parts;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

void put_string(Bytes& out, std::string_view text) {
  put_u16be(out, static_cast<std::uint16_t>(text.size()));
  append(out, bytes_of(text));
}

bool get_string(ByteSpan in, std::size_t& offset, std::string& out) {
  if (offset + 2 > in.size()) return false;
  const std::uint16_t len = get_u16be(in, offset);
  offset += 2;
  if (offset + len > in.size()) return false;
  out.assign(reinterpret_cast<const char*>(in.data() + offset), len);
  offset += len;
  return true;
}

void put_digest(Bytes& out, const crypto::Sha256Digest& digest) {
  out.insert(out.end(), digest.begin(), digest.end());
}

bool get_digest(ByteSpan in, std::size_t& offset,
                crypto::Sha256Digest& out) {
  if (offset + out.size() > in.size()) return false;
  std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(offset), out.size(),
              out.begin());
  offset += out.size();
  return true;
}

void put_preimage(Bytes& out, const std::array<std::uint8_t, 32>& block) {
  out.insert(out.end(), block.begin(), block.end());
}

bool get_preimage(ByteSpan in, std::size_t& offset,
                  std::array<std::uint8_t, 32>& out) {
  if (offset + out.size() > in.size()) return false;
  std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(offset), out.size(),
              out.begin());
  offset += out.size();
  return true;
}

}  // namespace

crypto::Sha256Digest payload_digest(const bitstream::GoldenModel& model) {
  crypto::Sha256 hash;
  Bytes frame_bytes;
  for (const fabric::FrameRange& range : model.app_ranges()) {
    for (std::uint32_t f = range.first; f < range.end(); ++f) {
      frame_bytes.clear();
      for (std::uint32_t w : model.golden_words(f)) put_u32be(frame_bytes, w);
      hash.update(frame_bytes);
    }
  }
  return hash.finalize();
}

std::uint64_t payload_frame_bytes(const bitstream::GoldenModel& model) {
  return std::uint64_t{model.app_frame_total()} * model.words_per_frame() *
         sizeof(std::uint32_t);
}

Bytes UpdateManifest::encode() const {
  Bytes out;
  put_u64be(out, version);
  put_string(out, device_type);
  put_string(out, app.name);
  put_u64be(out, app.seed);
  put_digest(out, payload);
  put_u64be(out, payload_bytes);
  return out;
}

Result<UpdateManifest> UpdateManifest::decode(ByteSpan data) {
  UpdateManifest manifest;
  std::size_t offset = 0;
  if (data.size() < 8) {
    return Result<UpdateManifest>::error("manifest truncated");
  }
  manifest.version = get_u64be(data, offset);
  offset += 8;
  if (!get_string(data, offset, manifest.device_type) ||
      !get_string(data, offset, manifest.app.name)) {
    return Result<UpdateManifest>::error("manifest truncated");
  }
  if (offset + 8 > data.size()) {
    return Result<UpdateManifest>::error("manifest truncated");
  }
  manifest.app.seed = get_u64be(data, offset);
  offset += 8;
  if (!get_digest(data, offset, manifest.payload)) {
    return Result<UpdateManifest>::error("manifest truncated");
  }
  if (offset + 8 > data.size()) {
    return Result<UpdateManifest>::error("manifest truncated");
  }
  manifest.payload_bytes = get_u64be(data, offset);
  offset += 8;
  if (offset != data.size()) {
    return Result<UpdateManifest>::error("manifest has trailing bytes");
  }
  return manifest;
}

crypto::Sha256Digest UpdateManifest::digest() const {
  crypto::Sha256 hash;
  hash.update(bytes_of(kManifestDomain));
  hash.update(encode());
  return hash.finalize();
}

std::string UpdateManifest::describe() const {
  std::ostringstream out;
  out << "v" << version << " app=" << app.name << ':' << app.seed
      << " device=" << device_type << " payload=" << payload_bytes << "B "
      << to_hex(ByteSpan(payload.data(), 8));
  return out.str();
}

Result<UpdateManifest> UpdateManifest::parse(std::string_view spec) {
  UpdateManifest manifest;
  bool have_version = false;
  bool have_app = false;
  for (const std::string_view clause : split(spec, ';')) {
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos) {
      return Result<UpdateManifest>::error("bad manifest clause \"" +
                                           std::string(clause) +
                                           "\": expected key=value");
    }
    const std::string_view key = clause.substr(0, eq);
    const std::string_view value = clause.substr(eq + 1);
    if (key == "version") {
      if (!parse_u64(value, manifest.version) || manifest.version == 0) {
        return Result<UpdateManifest>::error(
            "manifest version must be a positive integer");
      }
      have_version = true;
    } else if (key == "app") {
      const std::vector<std::string_view> parts = split(value, ':');
      if (parts.empty() || parts.size() > 2 || parts[0].empty()) {
        return Result<UpdateManifest>::error(
            "manifest app must be <name>[:<build_seed>]");
      }
      manifest.app.name = std::string(parts[0]);
      if (parts.size() == 2 && !parse_u64(parts[1], manifest.app.seed)) {
        return Result<UpdateManifest>::error(
            "manifest app build seed must be an integer");
      }
      have_app = true;
    } else if (key == "device") {
      manifest.device_type = std::string(value);
    } else {
      return Result<UpdateManifest>::error("unknown manifest key \"" +
                                           std::string(key) + "\"");
    }
  }
  if (!have_version || !have_app) {
    return Result<UpdateManifest>::error(
        "manifest needs at least version=<v>;app=<name>[:<seed>]");
  }
  return manifest;
}

Bytes SignedManifest::encode() const {
  Bytes out;
  const Bytes body = manifest.encode();
  put_u32be(out, static_cast<std::uint32_t>(body.size()));
  append(out, body);
  put_u32be(out, tree_height);
  put_u32be(out, signature.leaf_index);
  put_u32be(out, static_cast<std::uint32_t>(
                     signature.leaf_public.hashes.size()));
  for (const crypto::Sha256Digest& digest : signature.leaf_public.hashes) {
    put_digest(out, digest);
  }
  put_u32be(out, static_cast<std::uint32_t>(signature.ots.revealed.size()));
  for (const auto& preimage : signature.ots.revealed) {
    put_preimage(out, preimage);
  }
  put_u32be(out, static_cast<std::uint32_t>(signature.auth_path.size()));
  for (const crypto::Sha256Digest& digest : signature.auth_path) {
    put_digest(out, digest);
  }
  return out;
}

Result<SignedManifest> SignedManifest::decode(ByteSpan data) {
  SignedManifest out;
  std::size_t offset = 0;
  const auto fail = [](std::string_view why) {
    return Result<SignedManifest>::error("signed manifest: " +
                                         std::string(why));
  };
  if (data.size() < 4) return fail("truncated");
  const std::uint32_t body_len = get_u32be(data, offset);
  offset += 4;
  if (offset + body_len > data.size()) return fail("truncated body");
  Result<UpdateManifest> manifest =
      UpdateManifest::decode(data.subspan(offset, body_len));
  if (!manifest.ok()) return fail(manifest.message());
  out.manifest = std::move(manifest).take();
  offset += body_len;
  if (offset + 12 > data.size()) return fail("truncated signature header");
  out.tree_height = get_u32be(data, offset);
  offset += 4;
  out.signature.leaf_index = get_u32be(data, offset);
  offset += 4;
  const std::uint32_t public_hashes = get_u32be(data, offset);
  offset += 4;
  if (public_hashes != crypto::kLamportChains) {
    return fail("wrong public-key size");
  }
  out.signature.leaf_public.hashes.resize(public_hashes);
  for (crypto::Sha256Digest& digest : out.signature.leaf_public.hashes) {
    if (!get_digest(data, offset, digest)) return fail("truncated public key");
  }
  if (offset + 4 > data.size()) return fail("truncated");
  const std::uint32_t revealed = get_u32be(data, offset);
  offset += 4;
  if (revealed != crypto::kSha256DigestSize * 8) {
    return fail("wrong signature size");
  }
  out.signature.ots.revealed.resize(revealed);
  for (auto& preimage : out.signature.ots.revealed) {
    if (!get_preimage(data, offset, preimage)) return fail("truncated OTS");
  }
  if (offset + 4 > data.size()) return fail("truncated");
  const std::uint32_t path = get_u32be(data, offset);
  offset += 4;
  if (path != out.tree_height || path > 32) {
    return fail("auth path does not match tree height");
  }
  out.signature.auth_path.resize(path);
  for (crypto::Sha256Digest& digest : out.signature.auth_path) {
    if (!get_digest(data, offset, digest)) return fail("truncated auth path");
  }
  if (offset != data.size()) return fail("trailing bytes");
  return out;
}

Result<SignedManifest> sign_manifest(const UpdateManifest& manifest,
                                     crypto::HashSigner& signer) {
  const auto signature = signer.sign(manifest.digest());
  if (!signature.has_value()) {
    return Result<SignedManifest>::error(
        "signing identity exhausted (all one-time leaves used)");
  }
  SignedManifest out;
  out.manifest = manifest;
  out.tree_height = 0;
  for (std::uint32_t capacity = signer.capacity(); capacity > 1;
       capacity >>= 1) {
    ++out.tree_height;
  }
  out.signature = *signature;
  return out;
}

ManifestCheck verify_manifest(const SignedManifest& signed_manifest,
                              const crypto::Sha256Digest& trusted_root,
                              core::LeafPolicy& policy,
                              std::string_view device_type) {
  ManifestCheck check;
  const UpdateManifest& manifest = signed_manifest.manifest;
  check.version_ok = manifest.version > 0;
  check.device_ok =
      device_type.empty() || manifest.device_type == device_type;
  check.signature_ok =
      crypto::merkle_verify(trusted_root, signed_manifest.tree_height,
                            manifest.digest(), signed_manifest.signature);
  // A leaf is only consumed by a signature that actually chains to the
  // root: garbage offers must not burn the operator's one-time leaves.
  check.leaf_fresh =
      check.signature_ok && policy.accept(signed_manifest.signature.leaf_index);
  if (check.ok()) {
    check.detail = "manifest verified (leaf " +
                   std::to_string(signed_manifest.signature.leaf_index) + ")";
  } else if (!check.signature_ok) {
    check.detail = "signature does not chain to the trusted update root";
  } else if (!check.leaf_fresh) {
    check.detail = "one-time manifest leaf reused";
  } else if (!check.device_ok) {
    check.detail = "manifest targets device type \"" + manifest.device_type +
                   "\", not \"" + std::string(device_type) + "\"";
  } else {
    check.detail = "manifest version must be positive";
  }
  return check;
}

}  // namespace sacha::update
