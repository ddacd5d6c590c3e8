#include "erasure/gf256.hpp"

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/assert.hpp"

namespace nsrel::erasure {

namespace {

using Element = GF256::Element;

struct LogExp {
  std::array<Element, 512> exp{};
  std::array<unsigned, 256> log{};
};

constexpr LogExp make_log_exp() {
  // Generator 0x03 is primitive for 0x11B; fill exp/log by repeated
  // multiplication by 3 (= x + 1): t*3 = t ^ (t<<1) with reduction.
  LogExp t;
  unsigned value = 1;
  for (unsigned i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<Element>(value);
    t.log[value] = i;
    const unsigned doubled = value << 1;
    value = (doubled ^ value) & 0x1FF;  // multiply by 3 before reduction
    if (value & 0x100) value ^= 0x11B;
  }
  // Duplicate the table so products can skip the mod-255 of summed logs.
  for (unsigned i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
  return t;
}

constexpr LogExp kTables = make_log_exp();

using ProductTable = std::array<std::array<Element, 256>, 256>;

constexpr ProductTable make_products() {
  ProductTable table{};
  for (unsigned a = 1; a < 256; ++a) {
    for (unsigned b = 1; b < 256; ++b) {
      table[a][b] = kTables.exp[kTables.log[a] + kTables.log[b]];
    }
  }
  return table;
}

/// kProducts[c][x] = c * x: 64 KiB of read-only data, built by the
/// compiler, so nothing is computed at process start.
alignas(64) constexpr ProductTable kProducts = make_products();

}  // namespace

GF256::Element GF256::mul(Element a, Element b) { return kProducts[a][b]; }

GF256::Element GF256::div(Element a, Element b) {
  NSREL_EXPECTS(b != 0);
  if (a == 0) return 0;
  return kTables.exp[kTables.log[a] + 255 - kTables.log[b]];
}

GF256::Element GF256::inv(Element a) {
  NSREL_EXPECTS(a != 0);
  return kTables.exp[255 - kTables.log[a]];
}

GF256::Element GF256::pow(Element a, unsigned power) {
  if (power == 0) return 1;
  if (a == 0) return 0;
  return kTables.exp[(kTables.log[a] * power) % 255];
}

GF256::Element GF256::exp(unsigned power) { return kTables.exp[power % 255]; }

unsigned GF256::log(Element a) {
  NSREL_EXPECTS(a != 0);
  return kTables.log[a];
}

void GF256::mul_add_region(Element* dst, Element c, const Element* src,
                           std::size_t n) {
  if (c == 0) return;
  const std::array<Element, 256>& row = kProducts[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

}  // namespace nsrel::erasure
