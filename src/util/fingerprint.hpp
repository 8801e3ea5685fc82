#pragma once
// Deterministic 128-bit fingerprints of byte-exact inputs. The checkpoint
// layer (DESIGN.md §14) fingerprints the producing configuration, so a
// checkpoint is only ever resumed under the config that wrote it.
//
// Design constraints:
//  * Pure function of the input bytes: no pointers, no addresses, no
//    iteration over unordered containers (psched-lint rule D2), no clock or
//    entropy reads (rule D1). Same inputs -> same fingerprint on every
//    platform, build, and thread count.
//  * Doubles are hashed through their IEEE-754 bit pattern (std::bit_cast),
//    not through rounding or formatting: two inputs fingerprint equal iff
//    they are bit-identical, which is exactly the granularity at which the
//    online simulator is deterministic. (-0.0 and 0.0 hash differently;
//    that is deliberate — they are different inputs.)
//  * Two independent 64-bit FNV-1a streams (different offset bases) make
//    accidental collision probability ~2^-128 per lookup.

#include <bit>
#include <cstdint>

namespace psched::util {

/// Order-sensitive 128-bit hash accumulator (dual FNV-1a).
class Fingerprint {
 public:
  /// Mix one 64-bit word (byte-wise, little-endian lane order).
  constexpr void mix(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      const auto octet = static_cast<std::uint8_t>(word >> (8 * byte));
      lo_ = (lo_ ^ octet) * kPrime;
      hi_ = (hi_ ^ octet) * kPrime;
    }
  }

  /// Mix a double via its IEEE-754 bit pattern (bit-exact, no rounding).
  constexpr void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }

  constexpr void mix(int value) noexcept {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  }
  constexpr void mix(bool value) noexcept { mix(static_cast<std::uint64_t>(value)); }

  [[nodiscard]] constexpr std::uint64_t lo() const noexcept { return lo_; }
  [[nodiscard]] constexpr std::uint64_t hi() const noexcept { return hi_; }

  /// Exact 128-bit equality (integer compare; no float semantics involved).
  [[nodiscard]] friend constexpr bool operator==(const Fingerprint& a,
                                                 const Fingerprint& b) noexcept {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }
  [[nodiscard]] friend constexpr bool operator!=(const Fingerprint& a,
                                                 const Fingerprint& b) noexcept {
    return !(a == b);
  }

  /// Derive the per-candidate fingerprint from a round fingerprint: the
  /// round hash extended with the portfolio index. Cheap (one mix), so the
  /// expensive part (hashing queue + profile) is shared by all candidates.
  [[nodiscard]] constexpr Fingerprint combined(std::size_t index) const noexcept {
    Fingerprint fp = *this;
    fp.mix(index);
    return fp;
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a 64
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  std::uint64_t hi_ = 0x6c62272e07bb0142ULL;  // FNV-1a *128* offset (hi word):
                                              // an independent second stream
};

}  // namespace psched::util
