// Test-only reference verifier: the seed verifier's rule, which
// core::SachaVerifier's one-pass streaming absorb must reproduce verdict for
// verdict. It buffers the whole readback transcript, one word vector per
// step, and does all the work in finish(): H_Vrf is the CMAC of the
// transcript's big-endian bytes, each frame is compared with masked_equal
// under a freshly derived architectural_mask, then coverage is checked over
// the scheduled frames. The first failure names the verdict, with the same
// details and typed kinds as the production verifier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/bitgen.hpp"
#include "bitstream/frame.hpp"
#include "common/bytes.hpp"
#include "core/failure.hpp"
#include "core/protocol.hpp"
#include "core/verifier.hpp"
#include "crypto/cmac.hpp"
#include "crypto/ct.hpp"
#include "fabric/device.hpp"

namespace sacha::testing {

class ReferenceVerifier {
 public:
  /// Judges the session `verifier` froze at begin(): it adopts the schedule
  /// (command count, readback steps) and copies every golden frame, the
  /// session's nonce frame included. `key` is the shared MAC key.
  ReferenceVerifier(const core::SachaVerifier& verifier, crypto::AesKey key)
      : device_(verifier.floorplan().device()),
        key_(key),
        steps_(verifier.readback_steps()),
        configs_(verifier.command_count() - steps_.size() - 1),
        received_(steps_.size()) {
    const std::uint32_t total = device_.total_frames();
    golden_.reserve(total);
    for (std::uint32_t f = 0; f < total; ++f) {
      golden_.push_back(verifier.golden_frame(f));
    }
  }

  /// Keeps the response of command `index`: a readback step's words are
  /// stored until finish(), whatever order they arrive in.
  void on_response(std::size_t index, std::optional<core::Response> response) {
    if (index < configs_) {
      if (response.has_value() &&
          response->type == core::ResponseType::kError) {
        fail(core::FailureKind::kDeviceError,
             "device rejected configuration command " + std::to_string(index));
      }
      return;
    }
    if (index < configs_ + steps_.size()) {
      const std::size_t step = index - configs_;
      if (!response.has_value() ||
          response->type != core::ResponseType::kFrameData) {
        fail(kind_of_missing(response),
             "missing or bad readback response at step " +
                 std::to_string(step));
        return;
      }
      const std::size_t expected_words =
          std::size_t{steps_[step].second} *
          device_.geometry().words_per_frame();
      if (response->frame_words.size() != expected_words) {
        fail(core::FailureKind::kDecodeError,
             "readback step " + std::to_string(step) +
                 " returned wrong word count");
        return;
      }
      received_[step] = std::move(response->frame_words);
      return;
    }
    if (!response.has_value() ||
        response->type != core::ResponseType::kMacValue) {
      fail(kind_of_missing(response), "missing or bad MAC response");
      return;
    }
    received_mac_ = response->mac;
  }

  /// H_Vrf: the CMAC of every step's words serialised big-endian, in
  /// readback order, or nullopt while a step is missing.
  std::optional<crypto::Mac> expected_mac() const {
    for (const auto& words : received_) {
      if (!words.has_value()) return std::nullopt;
    }
    crypto::Cmac cmac(key_);
    for (const auto& words : received_) {
      Bytes bytes;
      bytes.reserve(words->size() * 4);
      for (const std::uint32_t w : *words) put_u32be(bytes, w);
      cmac.update(bytes);
    }
    return cmac.finalize();
  }

  core::SachaVerifier::Verdict finish() const {
    core::SachaVerifier::Verdict verdict;
    if (protocol_error_.has_value()) {
      verdict.detail = *protocol_error_;
      verdict.kind = protocol_failure_;
      return verdict;
    }
    if (!received_mac_.has_value()) {
      verdict.detail = "no MAC received";
      verdict.kind = core::FailureKind::kTimeoutExhausted;
      return verdict;
    }
    for (std::size_t s = 0; s < steps_.size(); ++s) {
      if (!received_[s].has_value()) {
        verdict.detail = "no data for readback step " + std::to_string(s);
        verdict.kind = core::FailureKind::kTimeoutExhausted;
        return verdict;
      }
    }
    verdict.protocol_ok = true;

    const std::optional<crypto::Mac> expected = expected_mac();
    verdict.mac_ok =
        expected.has_value() && crypto::ct_equal(*expected, *received_mac_);
    if (!verdict.mac_ok) {
      verdict.detail =
          "MAC mismatch: device does not hold the key or data was modified";
      verdict.kind = core::FailureKind::kMacMismatch;
    }

    const std::uint32_t wpf = device_.geometry().words_per_frame();
    std::vector<bool> covered(device_.total_frames(), false);
    std::vector<bool> scheduled(device_.total_frames(), false);
    std::string config_detail;
    for (std::size_t s = 0; s < steps_.size(); ++s) {
      const auto [first, count] = steps_[s];
      for (std::uint32_t f = 0; f < count; ++f) scheduled[first + f] = true;
      for (std::uint32_t f = 0; f < count && config_detail.empty(); ++f) {
        const std::uint32_t frame = first + f;
        const auto begin =
            received_[s]->begin() + static_cast<std::ptrdiff_t>(f) * wpf;
        const bitstream::Frame received(
            std::vector<std::uint32_t>(begin, begin + wpf));
        if (!bitstream::masked_equal(
                received, golden_[frame],
                bitstream::architectural_mask(device_, frame))) {
          config_detail =
              "configuration mismatch at frame " + std::to_string(frame);
        }
        covered[frame] = true;
      }
    }
    for (std::uint32_t f = 0; f < covered.size() && config_detail.empty();
         ++f) {
      if (scheduled[f] && !covered[f]) {
        config_detail = "frame " + std::to_string(f) + " never read back";
      }
    }
    verdict.config_ok = config_detail.empty();
    if (!verdict.config_ok && verdict.detail.empty()) {
      verdict.detail = config_detail;
    }
    if (!verdict.config_ok && verdict.kind == core::FailureKind::kNone) {
      verdict.kind = core::FailureKind::kMaskedCompareMismatch;
    }
    if (verdict.ok()) verdict.detail = "attested";
    return verdict;
  }

 private:
  static core::FailureKind kind_of_missing(
      const std::optional<core::Response>& response) {
    if (!response.has_value()) return core::FailureKind::kTimeoutExhausted;
    return response->type == core::ResponseType::kError
               ? core::FailureKind::kDeviceError
               : core::FailureKind::kDecodeError;
  }

  void fail(core::FailureKind kind, std::string message) {
    if (protocol_error_.has_value()) return;  // the first failure is the verdict's
    protocol_error_ = std::move(message);
    protocol_failure_ = kind;
  }

  fabric::DeviceModel device_;
  crypto::AesKey key_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> steps_;
  std::size_t configs_ = 0;
  std::vector<bitstream::Frame> golden_;
  std::vector<std::optional<std::vector<std::uint32_t>>> received_;
  std::optional<crypto::Mac> received_mac_;
  std::optional<std::string> protocol_error_;
  core::FailureKind protocol_failure_ = core::FailureKind::kNone;
};

}  // namespace sacha::testing
