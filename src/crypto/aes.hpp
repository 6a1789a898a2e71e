/// \file aes.hpp
/// AES-128 block cipher and CBC mode (FIPS-197 / SP 800-38A).
///
/// The paper's IPsec gateway encrypts ESP payloads with AES-CBC 128 (the
/// testbed offloads it to the NIC; here it runs in software). Two
/// implementations live side by side:
///
///   * Aes128 — the fast substrate: four 256x32-bit encryption T-tables
///     (plus the inverse set for decryption) generated at compile time from
///     the S-box, a flat word-level round-key schedule computed once in the
///     ctor, and word-level AddRoundKey. One round is 4 table lookups + 3
///     XORs per column instead of 16 S-box lookups, a ShiftRows shuffle and
///     an xtime/gmul MixColumns. Decryption additionally exposes a 4-block
///     software-pipelined path (decrypt_block4) that CBC decryption uses to
///     exploit cross-block independence. Where the CPU has the AES ISA
///     (runtime cpuid check; Impl::kAuto), block and CBC work dispatch to
///     an AES-NI path (src/crypto/aes_ni.cpp) that runs one round per
///     aesenc/aesdec instruction — the T-tables remain the portable fast
///     path and are always selectable via Impl::kTables.
///   * ScalarAes128 — the original table-free per-byte implementation, kept
///     alive as the differential-testing oracle (tests/test_crypto.cpp
///     fuzzes fast-vs-scalar equivalence for random keys and lengths over
///     every enabled implementation).
///
/// Both share one byte-for-byte behaviour; vectors and the fuzz oracle pin
/// it. The discrete-event simulator charges the calibrated per-packet cost
/// by default and only executes the cipher inline in the fig16
/// `--crypto=live` mode of bench_paper (see bench/paper.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>

namespace metro::crypto {

/// Fast AES-128: T-tables everywhere, AES-NI where the CPU has it. Key
/// schedule runs once in the ctor; per-block work is table lookups and
/// XORs (or one aesenc/aesdec per round on the hardware path).
class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  /// Implementation pin. kAuto (the data-path default) takes the AES-NI
  /// path when the running CPU supports it and T-tables otherwise; tests
  /// force kTables / kHardware so both paths stay vector- and fuzz-pinned.
  enum class Impl { kAuto, kTables, kHardware };

  explicit Aes128(std::span<const std::uint8_t, kKeySize> key, Impl impl = Impl::kAuto);

  /// Whether the running CPU exposes the AES ISA (runtime cpuid check).
  static bool hardware_available() noexcept;
  /// Whether this instance dispatches to the AES-NI path.
  bool uses_hardware() const noexcept { return use_hw_; }

  void encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;
  void decrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;

  /// Decrypt four independent blocks in lockstep (software pipelining:
  /// the four states' table loads interleave, hiding L1 latency). Used by
  /// CBC decryption, where ciphertext blocks decrypt independently.
  void decrypt_block4(const std::uint8_t in[4 * kBlockSize],
                      std::uint8_t out[4 * kBlockSize]) const;

  /// Whole-buffer CBC (in.size() must be a multiple of 16; in-place only
  /// when in and out are identical ranges). Keeping the loop inside the
  /// cipher lets the hardware path hold the chain value in a register
  /// across the buffer instead of round-tripping through memory per block.
  void cbc_encrypt(std::span<const std::uint8_t> in, std::span<const std::uint8_t, 16> iv,
                   std::span<std::uint8_t> out) const;
  void cbc_decrypt(std::span<const std::uint8_t> in, std::span<const std::uint8_t, 16> iv,
                   std::span<std::uint8_t> out) const;

 private:
  /// Encryption round keys, 11 rounds x 4 big-endian words.
  std::array<std::uint32_t, 4 * (kRounds + 1)> ek_{};
  /// Equivalent-inverse-cipher round keys (InvMixColumns applied to the
  /// middle rounds), same layout.
  std::array<std::uint32_t, 4 * (kRounds + 1)> dk_{};
  /// The same two schedules serialised to FIPS-197 byte order — the layout
  /// the AES-NI round-key loads expect. Dead weight (176 B each) on
  /// machines without the ISA; carried unconditionally to keep the ctor
  /// branch-free.
  std::array<std::uint8_t, kBlockSize*(kRounds + 1)> ekb_{};
  std::array<std::uint8_t, kBlockSize*(kRounds + 1)> dkb_{};
  bool use_hw_ = false;
};

/// The original straightforward table-free AES-128: per-byte S-box lookups
/// with on-the-fly xtime/gmul MixColumns. Kept as the differential-testing
/// oracle for Aes128 and as the scalar baseline the crypto benches compare
/// against.
class ScalarAes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  explicit ScalarAes128(std::span<const std::uint8_t, kKeySize> key);

  void encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;
  void decrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;

 private:
  /// 11 round keys of 16 bytes each.
  std::array<std::uint8_t, kBlockSize*(kRounds + 1)> round_keys_{};
};

/// CBC mode over any AES-128 implementation. Buffers must be multiples of
/// 16 bytes (the ESP layer applies RFC 4303 padding before calling in).
/// When the cipher exposes whole-buffer cbc_encrypt/cbc_decrypt (Aes128
/// does) the mode delegates to those; otherwise it falls back to a generic
/// block-at-a-time chain, taking the cipher's 4-block pipelined decrypt
/// path when it has one.
/// \tparam Cipher the block cipher (Aes128 or ScalarAes128).
template <typename Cipher>
class BasicAesCbc {
 public:
  /// Extra ctor arguments forward to the cipher (tests pin an Aes128
  /// implementation by passing Aes128::Impl here).
  template <typename... Extra>
  explicit BasicAesCbc(std::span<const std::uint8_t, Cipher::kKeySize> key, Extra&&... extra)
      : cipher_(key, std::forward<Extra>(extra)...) {}

  /// In-place allowed only when in and out are identical ranges.
  void encrypt(std::span<const std::uint8_t> in, std::span<const std::uint8_t, 16> iv,
               std::span<std::uint8_t> out) const;
  void decrypt(std::span<const std::uint8_t> in, std::span<const std::uint8_t, 16> iv,
               std::span<std::uint8_t> out) const;

  /// The underlying block cipher (microbench access).
  const Cipher& cipher() const noexcept { return cipher_; }

 private:
  Cipher cipher_;
};

/// Fast CBC (the ESP data-path type).
using AesCbc = BasicAesCbc<Aes128>;
/// Scalar-oracle CBC (differential tests, bench baseline).
using ScalarAesCbc = BasicAesCbc<ScalarAes128>;

}  // namespace metro::crypto
