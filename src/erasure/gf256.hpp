// GF(2^8) arithmetic over the AES polynomial x^8+x^4+x^3+x+1 (0x11B),
// implemented with log/antilog and product tables computed at compile
// time (gf256.cpp), so no call pays for a table guard.
//
// This is the substrate for the Reed-Solomon erasure code that realizes
// the paper's "fault tolerance t across nodes" concretely: the paper
// assumes such a code exists ([2], [3]); a deployable system needs one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nsrel::erasure {

class GF256 {
 public:
  using Element = std::uint8_t;

  [[nodiscard]] static Element add(Element a, Element b) {
    return a ^ b;  // characteristic 2: addition is XOR
  }
  [[nodiscard]] static Element sub(Element a, Element b) { return a ^ b; }

  [[nodiscard]] static Element mul(Element a, Element b);

  /// Division a / b. Precondition: b != 0.
  [[nodiscard]] static Element div(Element a, Element b);

  /// Multiplicative inverse. Precondition: a != 0.
  [[nodiscard]] static Element inv(Element a);

  /// a^power with a^0 = 1 (including 0^0 = 1 by convention).
  [[nodiscard]] static Element pow(Element a, unsigned power);

  /// The field generator (0x03 for this polynomial) raised to `power`.
  [[nodiscard]] static Element exp(unsigned power);

  /// Discrete log base the generator. Precondition: a != 0.
  [[nodiscard]] static unsigned log(Element a);

  /// dst[i] ^= c * src[i] for i < n: the region kernel every Reed-Solomon
  /// encode and decode runs through. One 256-byte row of the product
  /// table serves the whole region (Plank, Greenan & Miller, FAST 2013).
  /// The two regions must not overlap.
  static void mul_add_region(Element* dst, Element c, const Element* src,
                             std::size_t n);
};

}  // namespace nsrel::erasure
