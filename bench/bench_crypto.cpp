// E9 — MAC core comparison.
//
// The PoC uses an area-optimised AES-CMAC core (283 CLB / 8 BRAM). This
// bench measures our software models of the two candidate MAC cores
// (AES-CMAC vs HMAC-SHA256) on the protocol's actual unit of work — one
// 324-byte configuration frame — and on a full configuration-memory stream,
// plus the primitive costs underneath.
//
// The AES engine has three tiers (reference / T-table / AES-NI, see
// crypto/aes.hpp); the tier sweep below is the crypto fast-path regression
// gate: it prints bytes/sec per tier, checks the MACs are bit-identical,
// and emits BENCH_crypto.json for trajectory tracking. A paired row times a
// session's two CMAC chains (H_Prv and H_Vrf) over the Virtex-6 per-frame
// word stream, folded in one pass (Cmac::update_pair) against back to
// back. The binary exits 1 when the tiers' MACs or the paired MACs differ.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/cmac.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prg.hpp"
#include "crypto/sha256.hpp"

using namespace sacha;

namespace {

crypto::AesKey bench_key() {
  crypto::Prg prg(7, "bench-key");
  return prg.key();
}

std::vector<crypto::AesImpl> available_tiers() {
  std::vector<crypto::AesImpl> tiers = {crypto::AesImpl::kReference,
                                        crypto::AesImpl::kTtable};
  if (crypto::Aes128::aesni_supported()) tiers.push_back(crypto::AesImpl::kAesni);
  return tiers;
}

void BM_AesBlockEncrypt(benchmark::State& state) {
  const auto impl = static_cast<crypto::AesImpl>(state.range(0));
  const crypto::Aes128 aes(bench_key(), impl);
  crypto::AesBlock block{};
  for (auto _ : state) {
    aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
  state.SetLabel(crypto::to_string(aes.impl()));
}
BENCHMARK(BM_AesBlockEncrypt)
    ->Arg(static_cast<int>(crypto::AesImpl::kReference))
    ->Arg(static_cast<int>(crypto::AesImpl::kTtable))
    ->Arg(static_cast<int>(crypto::AesImpl::kAesni));

void BM_CmacFrameUpdate(benchmark::State& state) {
  const auto impl = static_cast<crypto::AesImpl>(state.range(0));
  crypto::Cmac cmac(bench_key(), impl);
  const Bytes frame(324, 0x3c);
  for (auto _ : state) {
    cmac.update(frame);
    benchmark::DoNotOptimize(cmac);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 324);
  state.SetLabel(crypto::to_string(cmac.impl()));
}
BENCHMARK(BM_CmacFrameUpdate)
    ->Arg(static_cast<int>(crypto::AesImpl::kReference))
    ->Arg(static_cast<int>(crypto::AesImpl::kTtable))
    ->Arg(static_cast<int>(crypto::AesImpl::kAesni));

void BM_HmacSha256FrameUpdate(benchmark::State& state) {
  crypto::HmacSha256 hmac(Bytes(16, 0x3c));
  const Bytes frame(324, 0x3c);
  for (auto _ : state) {
    hmac.update(frame);
    benchmark::DoNotOptimize(hmac);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 324);
}
BENCHMARK(BM_HmacSha256FrameUpdate);

void BM_Sha256FrameUpdate(benchmark::State& state) {
  crypto::Sha256 sha;
  const Bytes frame(324, 0x3c);
  for (auto _ : state) {
    sha.update(frame);
    benchmark::DoNotOptimize(sha);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 324);
}
BENCHMARK(BM_Sha256FrameUpdate);

void BM_CmacFullConfigMemory(benchmark::State& state) {
  // MAC over the whole XC6VLX240T configuration: 28,488 frames x 324 B.
  const auto impl = static_cast<crypto::AesImpl>(state.range(0));
  const Bytes frame(324, 0x7e);
  for (auto _ : state) {
    crypto::Cmac cmac(bench_key(), impl);
    for (std::uint32_t f = 0; f < fabric::kVirtex6TotalFrames; ++f) {
      cmac.update(frame);
    }
    benchmark::DoNotOptimize(cmac.finalize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fabric::kVirtex6TotalFrames * 324);
  state.SetLabel(crypto::to_string(crypto::Aes128::resolve(impl)));
}
BENCHMARK(BM_CmacFullConfigMemory)
    ->Arg(static_cast<int>(crypto::AesImpl::kReference))
    ->Arg(static_cast<int>(crypto::AesImpl::kTtable))
    ->Arg(static_cast<int>(crypto::AesImpl::kAesni))
    ->Unit(benchmark::kMillisecond);

void BM_HmacFullConfigMemory(benchmark::State& state) {
  const Bytes frame(324, 0x7e);
  for (auto _ : state) {
    crypto::HmacSha256 hmac(Bytes(16, 1));
    for (std::uint32_t f = 0; f < fabric::kVirtex6TotalFrames; ++f) {
      hmac.update(frame);
    }
    benchmark::DoNotOptimize(hmac.finalize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fabric::kVirtex6TotalFrames * 324);
}
BENCHMARK(BM_HmacFullConfigMemory)->Unit(benchmark::kMillisecond);

void BM_PrgBytes(benchmark::State& state) {
  crypto::Prg prg(1, "bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(prg.bytes(static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PrgBytes)->Arg(16)->Arg(324)->Arg(4096);

/// Best-of-3 AES-CMAC throughput of one tier over `data`, in bytes/sec.
double measure_cmac_throughput(crypto::AesImpl impl, const Bytes& data,
                               crypto::Mac& mac_out) {
  using clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    crypto::Cmac cmac(bench_key(), impl);
    const auto t0 = clock::now();
    cmac.update(data);
    mac_out = cmac.finalize();
    const double secs = std::chrono::duration<double>(clock::now() - t0).count();
    if (secs > 0) best = std::max(best, static_cast<double>(data.size()) / secs);
  }
  return best;
}

/// Best-of-3 seconds to fold a session's two chains over `words`, one
/// 81-word frame per step, paired in one pass or back to back; `macs`
/// receives both tags.
double time_two_chains(bool paired, const std::vector<std::uint32_t>& words,
                       std::array<crypto::Mac, 2>& macs) {
  using clock = std::chrono::steady_clock;
  constexpr std::size_t kFrameWords = 81;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    crypto::Cmac prover(bench_key());
    crypto::Cmac verifier(bench_key());
    const auto t0 = clock::now();
    for (std::size_t at = 0; at < words.size(); at += kFrameWords) {
      const std::span<const std::uint32_t> frame(words.data() + at,
                                                 kFrameWords);
      if (paired) {
        crypto::Cmac::update_pair(prover, frame, verifier, frame);
      } else {
        prover.update(frame);
        verifier.update(frame);
      }
    }
    macs = {prover.finalize(), verifier.finalize()};
    const double secs = std::chrono::duration<double>(clock::now() - t0).count();
    if (rep == 0 || secs < best) best = secs;
  }
  return best;
}

/// The paired row: returns whether paired and back-to-back tags agree.
bool pair_row(std::vector<benchutil::BenchRecord>& records) {
  benchutil::print_title("Two CMAC chains per session (Virtex-6 frame stream)");
  std::vector<std::uint32_t> words(
      static_cast<std::size_t>(fabric::kVirtex6TotalFrames) * 81);
  Rng rng(9);
  for (std::uint32_t& w : words) w = static_cast<std::uint32_t>(rng.next_u64());
  std::array<crypto::Mac, 2> serial{};
  std::array<crypto::Mac, 2> paired{};
  const double serial_s = time_two_chains(false, words, serial);
  const double paired_s = time_two_chains(true, words, paired);
  const bool identical = serial == paired;
  const double speedup = paired_s > 0 ? serial_s / paired_s : 0.0;
  std::printf("tier %s: back to back %.2f ms, paired %.2f ms (%.2fx); "
              "MACs %s\n",
              crypto::to_string(crypto::Aes128::resolve(crypto::AesImpl::kAuto)),
              serial_s * 1e3, paired_s * 1e3, speedup,
              identical ? "bit-identical" : "MISMATCH — paired path broken");
  records.push_back(
      {"bench_crypto", "cmac_two_chains_ms", serial_s * 1e3, "ms"});
  records.push_back({"bench_crypto", "cmac_pair_ms", paired_s * 1e3, "ms"});
  records.push_back(
      {"bench_crypto", "cmac_pair_speedup_vs_two_chains", speedup, "x"});
  records.push_back({"bench_crypto", "cmac_pair_bit_identical",
                     identical ? 1.0 : 0.0, "bool"});
  return identical;
}

/// Returns whether every identity check held.
bool tier_sweep_and_emit() {
  benchutil::print_title("AES-CMAC tier sweep (frame-stream workload)");
  // One full XC6VLX240T readback volume: 28,488 frames x 324 bytes.
  const Bytes stream(static_cast<std::size_t>(fabric::kVirtex6TotalFrames) * 324,
                     0x5a);
  std::vector<benchutil::BenchRecord> records;
  double reference_bps = 0.0;
  crypto::Mac reference_mac{};
  bool macs_identical = true;

  std::printf("%-12s %14s %10s %8s\n", "tier", "throughput", "speedup", "MAC");
  for (crypto::AesImpl impl : available_tiers()) {
    crypto::Mac mac{};
    const double bps = measure_cmac_throughput(impl, stream, mac);
    if (impl == crypto::AesImpl::kReference) {
      reference_bps = bps;
      reference_mac = mac;
    }
    if (mac != reference_mac) macs_identical = false;
    const double speedup = reference_bps > 0 ? bps / reference_bps : 0.0;
    std::printf("%-12s %11.1f MB/s %9.2fx %8s\n", crypto::to_string(impl),
                bps / 1e6, speedup, mac == reference_mac ? "match" : "DIFFER");
    records.push_back({"bench_crypto",
                       std::string("cmac_") + crypto::to_string(impl) +
                           "_throughput",
                       bps, "bytes_per_sec"});
    if (impl != crypto::AesImpl::kReference) {
      records.push_back({"bench_crypto",
                         std::string("cmac_") + crypto::to_string(impl) +
                             "_speedup_vs_reference",
                         speedup, "x"});
    }
  }
  records.push_back({"bench_crypto", "tiers_bit_identical",
                     macs_identical ? 1.0 : 0.0, "bool"});
  std::printf("\nMACs across tiers: %s\n",
              macs_identical ? "bit-identical" : "MISMATCH — fast path broken");
  if (!crypto::Aes128::aesni_supported()) {
    std::printf("(AES-NI tier unavailable on this host; reported when present)\n");
  }
  const bool pair_identical = pair_row(records);
  benchutil::write_bench_json("BENCH_crypto.json", records);
  return macs_identical && pair_identical;
}

void print_context() {
  benchutil::print_title("MAC core comparison (software models)");
  std::printf(
      "The PoC's hardware MAC updates cost 16 cycles/frame (128 ns @125 MHz)\n"
      "because the AES core is pipelined with the readback stream; the\n"
      "software numbers below set the scale for a host-side verifier, which\n"
      "must MAC the same 9.2 MB per attestation (Fig. 9: H_Vrf).\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_context();
  const bool identical = tier_sweep_and_emit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!identical) {
    std::fprintf(stderr, "bench_crypto: MAC identity gate failed\n");
    return 1;
  }
  return 0;
}
