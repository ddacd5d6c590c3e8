// Unit and property tests for the linear algebra: the dense reference
// matrix and LU the differential harness uses as its oracle, and the
// library's sparse Markowitz LU against them.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>
#include <gtest/gtest.h>

#include <cmath>

#include "diffharness/lu.hpp"
#include "diffharness/matrix.hpp"
#include "linalg/sparse/sparse_lu.hpp"
#include "linalg/sparse/sparse_matrix.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nsrel::linalg {
namespace {

Matrix random_matrix(std::size_t n, Xoshiro256& rng, double scale = 1.0) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = (rng.uniform() - 0.5) * 2.0 * scale;
    }
  }
  // Diagonal dominance guarantees invertibility for property tests.
  for (std::size_t i = 0; i < n; ++i) m(i, i) += static_cast<double>(n) * scale;
  return m;
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, InitializerListRejectsRaggedRows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), ContractViolation);
}

TEST(Matrix, OutOfBoundsIndexingThrows) {
  const Matrix m(2, 2);
  EXPECT_THROW((void)m(2, 0), ContractViolation);
  EXPECT_THROW((void)m(0, 2), ContractViolation);
}

TEST(Matrix, IdentityMultiplication) {
  Xoshiro256 rng(1);
  const Matrix a = random_matrix(4, rng);
  const Matrix i = Matrix::identity(4);
  const Matrix left = i * a;
  const Matrix right = a * i;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(left(r, c), a(r, c));
      EXPECT_DOUBLE_EQ(right(r, c), a(r, c));
    }
  }
}

TEST(Matrix, AdditionSubtractionScaling) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 4.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(3, 3);
  EXPECT_THROW(a += b, ContractViolation);
  EXPECT_THROW((void)a.multiply(Matrix(3, 2)), ContractViolation);
}

TEST(Matrix, MultiplyKnownValues) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector v{1.0, 1.0};
  const Vector result = a.multiply(v);
  EXPECT_DOUBLE_EQ(result[0], 3.0);
  EXPECT_DOUBLE_EQ(result[1], 7.0);
}

TEST(Matrix, TransposeInvolution) {
  Xoshiro256 rng(2);
  const Matrix a = random_matrix(5, rng);
  const Matrix att = a.transpose().transpose();
  EXPECT_DOUBLE_EQ((att - a).max_abs(), 0.0);
}

TEST(Matrix, MinorMatrix) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  const Matrix m = a.minor_matrix(1, 1);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
}

TEST(Matrix, Norms) {
  const Matrix a{{1.0, -2.0}, {-3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(a.inf_norm(), 7.0);
}

TEST(VectorOps, DotAndNorms) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_THROW((void)dot(a, Vector{1.0}), ContractViolation);
}

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector b{5.0, 10.0};
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DeterminantKnownValues) {
  EXPECT_DOUBLE_EQ(determinant(Matrix{{3.0}}), 3.0);
  EXPECT_DOUBLE_EQ(determinant(Matrix{{1.0, 2.0}, {3.0, 4.0}}), -2.0);
  // Permutation matrix: determinant -1 exercises the pivot sign.
  EXPECT_DOUBLE_EQ(determinant(Matrix{{0.0, 1.0}, {1.0, 0.0}}), -1.0);
}

TEST(Lu, SingularDetection) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const LuDecomposition lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
  EXPECT_FALSE(solve(a, Vector{1.0, 1.0}).has_value());
  EXPECT_FALSE(inverse(a).has_value());
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = solve(a, Vector{2.0, 3.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

class LuPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LuPropertyTest, SolveResidualIsSmall) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const auto n = static_cast<std::size_t>(3 + GetParam() % 12);
  const Matrix a = random_matrix(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform() * 10.0 - 5.0;
  const auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  const Vector ax = a.multiply(*x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST_P(LuPropertyTest, InverseRoundTrip) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const auto n = static_cast<std::size_t>(2 + GetParam() % 10);
  const Matrix a = random_matrix(n, rng);
  const auto inv = inverse(a);
  ASSERT_TRUE(inv.has_value());
  const Matrix product = a * (*inv);
  EXPECT_LT((product - Matrix::identity(n)).max_abs(), 1e-9);
}

TEST_P(LuPropertyTest, DeterminantOfProductIsProductOfDeterminants) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const auto n = static_cast<std::size_t>(2 + GetParam() % 6);
  const Matrix a = random_matrix(n, rng);
  const Matrix b = random_matrix(n, rng);
  const double det_ab = determinant(a * b);
  const double det_a_det_b = determinant(a) * determinant(b);
  EXPECT_NEAR(det_ab, det_a_det_b,
              1e-9 * std::max(std::abs(det_ab), std::abs(det_a_det_b)));
}

TEST_P(LuPropertyTest, SolveTransposedMatchesExplicitTranspose) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const auto n = static_cast<std::size_t>(2 + GetParam() % 8);
  const Matrix a = random_matrix(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform();
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector via_method = lu.solve_transposed(b);
  const auto via_transpose = solve(a.transpose(), b);
  ASSERT_TRUE(via_transpose.has_value());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(via_method[i], (*via_transpose)[i], 1e-9);
  }
}

/// CSR copy of a dense matrix, exact zeros dropped.
sparse::CsrMatrix to_csr(const Matrix& a) {
  std::vector<sparse::Triplet> triplets;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != 0.0) {
        triplets.push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j), a(i, j)});
      }
    }
  }
  return sparse::CsrMatrix::from_triplets(a.rows(), a.cols(), triplets);
}

TEST_P(LuPropertyTest, SparseLuMatchesDenseLu) {
  // Markowitz pivoting differs from partial pivoting, so the two agree
  // to rounding on the solves, and their Hager estimates both bracket
  // the exact rcond.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 5000);
  const auto n = static_cast<std::size_t>(2 + GetParam() % 12);
  const Matrix a = random_matrix(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform() * 10.0 - 5.0;
  const LuDecomposition dense(a);
  const sparse::SparseLu lu(to_csr(a));
  ASSERT_FALSE(lu.singular());
  ASSERT_EQ(lu.dimension(), n);
  const Vector x = lu.solve(b);
  const Vector xt = lu.solve_transposed(b);
  const Vector dense_x = dense.solve(b);
  const Vector dense_xt = dense.solve_transposed(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], dense_x[i], 1e-9);
    EXPECT_NEAR(xt[i], dense_xt[i], 1e-9);
  }
  const double exact = 1.0 / (a.one_norm() * dense.inverse().one_norm());
  EXPECT_GE(lu.rcond_estimate(), exact * (1.0 - 1e-12));
  EXPECT_LE(lu.rcond_estimate(), exact * 20.0);
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, LuPropertyTest,
                         ::testing::Range(0, 20));

TEST(Lu, RcondReasonableForWellConditioned) {
  const Matrix a = Matrix::identity(5);
  const LuDecomposition lu(a);
  EXPECT_NEAR(lu.rcond_estimate(), 1.0, 1e-12);
}

TEST(Lu, RcondExactForDiagonalMatrices) {
  // For a diagonal matrix the Hager iteration converges to the true
  // 1-norm condition number: rcond = min|d| / max|d|.
  Matrix a = Matrix::identity(4);
  a(0, 0) = 1.0;
  a(1, 1) = -10.0;
  a(2, 2) = 100.0;
  a(3, 3) = 4000.0;
  const LuDecomposition lu(a);
  EXPECT_NEAR(lu.rcond_estimate(), 1.0 / 4000.0, 1e-15);
}

TEST_P(LuPropertyTest, RcondEstimateBracketsExactValue) {
  // The Hager estimator produces a lower bound on ||A^-1||_1, so the
  // returned rcond is an UPPER bound on the exact 1-norm rcond — and in
  // practice lands within a small factor of it.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  const auto n = static_cast<std::size_t>(2 + GetParam() % 10);
  const Matrix a = random_matrix(n, rng);
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const auto inv = inverse(a);
  ASSERT_TRUE(inv.has_value());
  const double exact = 1.0 / (a.one_norm() * inv->one_norm());
  const double estimate = lu.rcond_estimate();
  EXPECT_GE(estimate, exact * (1.0 - 1e-12));
  EXPECT_LE(estimate, exact * 20.0);
}

TEST(SparseLu, SingularDetection) {
  const sparse::SparseLu lu(to_csr(Matrix{{1.0, 2.0}, {2.0, 4.0}}));
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.rcond_estimate(), 0.0);
  // An empty column: no pivot candidate at all.
  EXPECT_TRUE(sparse::SparseLu(to_csr(Matrix{{1.0, 0.0}, {3.0, 0.0}}))
                  .singular());
}

TEST(SparseLu, RcondExactForDiagonalMatrices) {
  Matrix a = Matrix::identity(4);
  a(1, 1) = -10.0;
  a(2, 2) = 100.0;
  a(3, 3) = 4000.0;
  EXPECT_NEAR(sparse::SparseLu(to_csr(a)).rcond_estimate(), 1.0 / 4000.0,
              1e-15);
}

TEST(Lu, MatrixSolveMultipleRhs) {
  const Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  const Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  const LuDecomposition lu(a);
  const Matrix x = lu.solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-12);
}

}  // namespace
}  // namespace nsrel::linalg
