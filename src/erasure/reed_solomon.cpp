#include "erasure/reed_solomon.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::erasure {

namespace {
using Element = GF256::Element;
using GfMatrix = std::vector<std::vector<Element>>;
}  // namespace

ReedSolomonCode::ReedSolomonCode(int data_shards, int parity_shards)
    : data_shards_(data_shards), parity_shards_(parity_shards) {
  NSREL_EXPECTS(data_shards_ >= 1);
  NSREL_EXPECTS(parity_shards_ >= 1);
  NSREL_EXPECTS(data_shards_ + parity_shards_ <= 256);
  // Cauchy matrix c[i][j] = 1 / (x_i + y_j) with x_i = i + k, y_j = j
  // (distinct by construction since i + k >= k > j).
  parity_rows_.resize(static_cast<std::size_t>(parity_shards_));
  for (int i = 0; i < parity_shards_; ++i) {
    auto& row = parity_rows_[static_cast<std::size_t>(i)];
    row.resize(static_cast<std::size_t>(data_shards_));
    for (int j = 0; j < data_shards_; ++j) {
      const Element x = static_cast<Element>(i + data_shards_);
      const Element y = static_cast<Element>(j);
      row[static_cast<std::size_t>(j)] = GF256::inv(GF256::add(x, y));
    }
  }
}

std::vector<Shard> ReedSolomonCode::encode(
    const std::vector<Shard>& data) const {
  NSREL_EXPECTS(static_cast<int>(data.size()) == data_shards_);
  std::vector<const Shard*> view(static_cast<std::size_t>(total_shards()),
                                 nullptr);
  for (std::size_t i = 0; i < data.size(); ++i) view[i] = &data[i];
  std::vector<int> parity(static_cast<std::size_t>(parity_shards_));
  std::iota(parity.begin(), parity.end(), data_shards_);
  return decode(view, parity);
}

bool ReedSolomonCode::recoverable(const std::vector<bool>& present) const {
  NSREL_EXPECTS(static_cast<int>(present.size()) == total_shards());
  const auto available = std::count(present.begin(), present.end(), true);
  return available >= data_shards_;
}

GfMatrix ReedSolomonCode::generator() const {
  GfMatrix g(static_cast<std::size_t>(total_shards()),
             std::vector<Element>(static_cast<std::size_t>(data_shards_), 0));
  for (int i = 0; i < data_shards_; ++i) {
    g[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1;
  }
  for (int i = 0; i < parity_shards_; ++i) {
    g[static_cast<std::size_t>(data_shards_ + i)] =
        parity_rows_[static_cast<std::size_t>(i)];
  }
  return g;
}

std::vector<Shard> ReedSolomonCode::decode(
    ShardView survivors, std::span<const int> wanted) const {
  NSREL_EXPECTS(static_cast<int>(survivors.size()) == total_shards());
  const auto k = static_cast<std::size_t>(data_shards_);

  // The first k survivors in index order are the decode's inputs.
  std::vector<int> chosen;
  std::vector<const Shard*> inputs;
  for (int i = 0; i < total_shards() && inputs.size() < k; ++i) {
    const Shard* shard = survivors[static_cast<std::size_t>(i)];
    if (shard == nullptr) continue;
    chosen.push_back(i);
    inputs.push_back(shard);
  }
  NSREL_EXPECTS(inputs.size() == k);
  const std::size_t shard_size = inputs.front()->size();
  for (const Shard* shard : inputs) NSREL_EXPECTS(shard->size() == shard_size);

  // Wanted shard w is G[w] * data, and data = inverse(G[chosen]) * inputs,
  // so its coefficients over the inputs are G[w] * inverse(G[chosen]).
  // When the inputs are the data shards themselves the inverse is the
  // identity and G[w] is used as is.
  const GfMatrix g = generator();
  const bool systematic = chosen.back() == data_shards_ - 1;
  GfMatrix inverse;
  if (!systematic) {
    GfMatrix sub;
    sub.reserve(k);
    for (const int row : chosen) sub.push_back(g[static_cast<std::size_t>(row)]);
    inverse = gf_invert(std::move(sub));
    NSREL_ASSERT(!inverse.empty());  // MDS: every square submatrix invertible
  }

  std::vector<Shard> out;
  out.reserve(wanted.size());
  std::vector<Element> coeffs(k);
  for (const int w : wanted) {
    NSREL_EXPECTS(w >= 0 && w < total_shards());
    const std::vector<Element>& row = g[static_cast<std::size_t>(w)];
    if (systematic) {
      coeffs = row;
    } else {
      std::fill(coeffs.begin(), coeffs.end(), Element{0});
      for (std::size_t i = 0; i < k; ++i) {
        if (row[i] == 0) continue;
        for (std::size_t j = 0; j < k; ++j) {
          coeffs[j] = GF256::add(coeffs[j], GF256::mul(row[i], inverse[i][j]));
        }
      }
    }
    Shard& shard = out.emplace_back(shard_size, Element{0});
    for (std::size_t j = 0; j < k; ++j) {
      GF256::mul_add_region(shard.data(), coeffs[j], inputs[j]->data(),
                            shard_size);
    }
  }
  return out;
}

std::vector<Shard> ReedSolomonCode::reconstruct(
    const std::vector<Shard>& shards, const std::vector<bool>& present) const {
  NSREL_EXPECTS(static_cast<int>(shards.size()) == total_shards());
  NSREL_EXPECTS(static_cast<int>(present.size()) == total_shards());
  std::vector<const Shard*> view(shards.size(), nullptr);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (present[i]) view[i] = &shards[i];
  }
  std::vector<int> all(shards.size());
  std::iota(all.begin(), all.end(), 0);
  return decode(view, all);
}

GfMatrix gf_invert(GfMatrix m) {
  const std::size_t n = m.size();
  for (const auto& row : m) NSREL_EXPECTS(row.size() == n);

  GfMatrix inverse(n, std::vector<Element>(n, 0));
  for (std::size_t i = 0; i < n; ++i) inverse[i][i] = 1;

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot (any nonzero entry works in a field).
    std::size_t pivot = col;
    while (pivot < n && m[pivot][col] == 0) ++pivot;
    if (pivot == n) return {};  // singular
    std::swap(m[pivot], m[col]);
    std::swap(inverse[pivot], inverse[col]);

    const Element inv_pivot = GF256::inv(m[col][col]);
    for (std::size_t j = 0; j < n; ++j) {
      m[col][j] = GF256::mul(m[col][j], inv_pivot);
      inverse[col][j] = GF256::mul(inverse[col][j], inv_pivot);
    }
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || m[row][col] == 0) continue;
      const Element factor = m[row][col];
      for (std::size_t j = 0; j < n; ++j) {
        m[row][j] = GF256::sub(m[row][j], GF256::mul(factor, m[col][j]));
        inverse[row][j] =
            GF256::sub(inverse[row][j], GF256::mul(factor, inverse[col][j]));
      }
    }
  }
  return inverse;
}

}  // namespace nsrel::erasure
