// Systematic Reed-Solomon erasure code over GF(256).
//
// A redundancy set of size R with fault tolerance t stores k = R - t data
// shards plus t parity shards computed from a Cauchy matrix (an MDS
// construction: every square submatrix of a Cauchy matrix is invertible,
// so ANY t erasures are recoverable). This is the concrete code behind the
// paper's "erasure codes that tolerate 1, 2 and 3 node failures"; t = 1
// degenerates to parity (RAID-5-like across nodes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "erasure/gf256.hpp"

namespace nsrel::erasure {

using Shard = std::vector<std::uint8_t>;

/// A stripe's shards in index order, nullptr where a shard is erased: the
/// survivor view decode() reads in place, without copying a shard.
using ShardView = std::span<const Shard* const>;

class ReedSolomonCode {
 public:
  /// Code with `data_shards` data and `parity_shards` parity shards.
  /// Preconditions: data_shards >= 1, parity_shards >= 1,
  /// data_shards + parity_shards <= 256.
  ReedSolomonCode(int data_shards, int parity_shards);

  [[nodiscard]] int data_shards() const { return data_shards_; }
  [[nodiscard]] int parity_shards() const { return parity_shards_; }
  [[nodiscard]] int total_shards() const {
    return data_shards_ + parity_shards_;
  }

  /// Computes the parity shards for the given data shards. All data shards
  /// must have equal size; returns parity_shards() shards of that size.
  [[nodiscard]] std::vector<Shard> encode(
      const std::vector<Shard>& data) const;

  /// Computes only the `wanted` shards (stripe indices, returned in that
  /// order), each as a GF(256) combination of the first data_shards()
  /// survivors in index order — the same inputs whatever is wanted, so
  /// callers account the decode's reads identically. Parity that is not
  /// wanted is never computed. Preconditions: survivors.size() ==
  /// total_shards(), at least data_shards() survivors of equal size,
  /// every wanted index in [0, total_shards()).
  [[nodiscard]] std::vector<Shard> decode(ShardView survivors,
                                          std::span<const int> wanted) const;

  /// Reconstructs ALL shards (data + parity, in index order) from any
  /// subset of at least data_shards() survivors: decode() of every index.
  /// `present[i]` says whether shards[i] is available; shards[i] is ignored
  /// when absent. Precondition: count(present) >= data_shards(), sizes of
  /// present shards equal.
  [[nodiscard]] std::vector<Shard> reconstruct(
      const std::vector<Shard>& shards, const std::vector<bool>& present) const;

  /// True when the given erasure pattern is recoverable (i.e. at most
  /// parity_shards() shards missing).
  [[nodiscard]] bool recoverable(const std::vector<bool>& present) const;

  /// The full (R x k) generator matrix: identity on top, Cauchy parity
  /// rows below. Exposed for tests of the MDS property.
  [[nodiscard]] std::vector<std::vector<GF256::Element>> generator() const;

 private:
  int data_shards_;
  int parity_shards_;
  std::vector<std::vector<GF256::Element>> parity_rows_;  // t x k Cauchy
};

/// Gauss-Jordan inversion over GF(256). Returns empty when singular.
[[nodiscard]] std::vector<std::vector<GF256::Element>> gf_invert(
    std::vector<std::vector<GF256::Element>> m);

}  // namespace nsrel::erasure
