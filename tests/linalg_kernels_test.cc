// The batched kernels' contract is *bit*-equality with the scalar loops
// they replace (kernels.h) — these tests assert EXPECT_EQ on doubles, not
// closeness. CholUpdate is the exception: a rank-1 update cannot be
// bit-identical to a fresh factorization, so its contract is a drift
// bound plus clean failure on corrupt input.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "rng/distributions.h"
#include "rng/pcg64.h"

namespace fasea {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Pcg64& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = UniformReal(rng, -1.0, 1.0);
    }
  }
  return m;
}

Matrix RandomSpd(std::size_t n, Pcg64& rng) {
  const Matrix b = RandomMatrix(n, n, rng);
  Matrix spd = Matrix::ScaledIdentity(n, static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += b(i, k) * b(j, k);
      spd(i, j) += sum;
    }
  }
  return spd;
}

std::vector<double> RandomValues(std::size_t n, Pcg64& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = UniformReal(rng, -1.0, 1.0);
  return v;
}

TEST(GemvRowsTest, BitIdenticalToPerRowDot) {
  Pcg64 rng(101);
  // Shapes straddle the 4-row unroll boundary and include empty.
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{0, 3},
                            {1, 5},
                            {3, 7},
                            {4, 8},
                            {7, 3},
                            {33, 16},
                            {64, 50}}) {
    const Matrix a = RandomMatrix(rows, cols, rng);
    const std::vector<double> x = RandomValues(cols, rng);
    std::vector<double> y(rows);
    GemvRows(a, x, y);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(y[i], Dot(a.Row(i), x)) << "row " << i << " of " << rows;
    }
  }
}

TEST(TransposeIntoTest, MatchesTransposedAndReshapes) {
  Pcg64 rng(102);
  Matrix out;
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{3, 5},
                            {5, 3},
                            {1, 7},
                            {8, 8}}) {
    const Matrix a = RandomMatrix(rows, cols, rng);
    TransposeInto(a, &out);  // Reuses `out` across shapes.
    EXPECT_EQ(out, a.Transposed());
  }
}

TEST(GemmAccumulateTest, BitIdenticalToSequentialKOrder) {
  Pcg64 rng(103);
  for (auto [m, k, n] : {std::tuple<std::size_t, std::size_t, std::size_t>{
                             1, 1, 1},
                         {3, 4, 5},
                         {17, 9, 22},
                         {40, 50, 8},
                         // Every output width mod 8 (the register tile),
                         // plus empty and single-row operands.
                         {0, 4, 9},
                         {1, 16, 16},
                         {2, 9, 9},
                         {3, 15, 15},
                         {5, 17, 17},
                         {4, 50, 50},
                         {3, 11, 11},
                         {2, 12, 12},
                         {2, 13, 13},
                         {2, 64, 64},
                         {1, 7, 130}}) {
    const Matrix a = RandomMatrix(m, k, rng);
    const Matrix b = RandomMatrix(k, n, rng);
    Matrix c(m, n);
    GemmAccumulate(a, b, &c);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double sum = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) sum += a(i, kk) * b(kk, j);
        EXPECT_EQ(c(i, j), sum) << i << "," << j;
      }
    }
  }
}

TEST(GemmAccumulateTest, AccumulatesOntoExistingC) {
  Pcg64 rng(104);
  const Matrix a = RandomMatrix(6, 4, rng);
  const Matrix b = RandomMatrix(4, 5, rng);
  Matrix c = RandomMatrix(6, 5, rng);
  const Matrix c0 = c;
  GemmAccumulate(a, b, &c);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      double sum = c0(i, j);
      for (std::size_t k = 0; k < 4; ++k) sum += a(i, k) * b(k, j);
      EXPECT_EQ(c(i, j), sum);
    }
  }
}

TEST(BatchedQuadFormTest, BitIdenticalToQuadraticFormPerRow) {
  Pcg64 rng(105);
  Matrix at;  // Reused across shapes, like RidgeState's cached (Y⁻¹)ᵀ.
  for (auto [n, d] : {std::pair<std::size_t, std::size_t>{1, 3},
                      {10, 5},
                      {33, 16},
                      {100, 7},
                      // Every d mod 8 (the register tile), empty and
                      // single-row batches, and a d past the kernel's
                      // on-stack G row.
                      {0, 8},
                      {1, 9},
                      {7, 15},
                      {5, 16},
                      {9, 17},
                      {4, 50},
                      {3, 64},
                      {2, 11},
                      {2, 12},
                      {2, 13},
                      {2, 22},
                      {1, 200}}) {
    // A deliberately non-symmetric square matrix: the kernel must match
    // QuadraticForm's row-major traversal, not rely on symmetry (the
    // maintained Y⁻¹ is symmetric only up to rounding).
    const Matrix a = RandomMatrix(d, d, rng);
    const Matrix x = RandomMatrix(n, d, rng);
    std::vector<double> out(n);
    TransposeInto(a, &at);
    BatchedQuadFormPre(x, at, out);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(out[v], a.QuadraticForm(x.Row(v))) << "row " << v;
    }
  }
}

TEST(CholUpdateTest, UpdatedFactorReproducesRankOneUpdatedMatrix) {
  Pcg64 rng(106);
  const std::size_t d = 12;
  Matrix y = RandomSpd(d, rng);
  auto chol = Cholesky::Factorize(y);
  ASSERT_TRUE(chol.ok());
  Matrix l = chol->L();
  const std::vector<double> x = RandomValues(d, rng);
  std::vector<double> work(d);
  ASSERT_TRUE(CholUpdate(&l, x, work));
  y.AddOuter(1.0, x);
  // Rebuild L·Lᵀ and compare against the directly updated Y.
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < d; ++k) sum += l(i, k) * l(j, k);
      EXPECT_NEAR(sum, y(i, j), 1e-10) << i << "," << j;
    }
  }
}

TEST(CholUpdateTest, DriftStaysBoundedOverTenThousandUpdates) {
  Pcg64 rng(107);
  const std::size_t d = 10;
  const double lambda = 1.0;
  Matrix y = Matrix::ScaledIdentity(d, lambda);
  Cholesky factor = Cholesky::ScaledIdentity(d, lambda);
  std::vector<double> work(d);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));
  std::vector<double> x(d);
  for (int t = 0; t < 10000; ++t) {
    for (auto& v : x) v = UniformReal(rng, -1.0, 1.0) * inv_sqrt_d;
    y.AddOuter(1.0, x);
    ASSERT_TRUE(factor.RankOneUpdate(x, work)) << "update " << t;
  }
  auto fresh = Cholesky::Factorize(y);
  ASSERT_TRUE(fresh.ok());
  // Backward-stable rank-1 updates: drift grows like √T·eps relative to
  // the factor's scale; 1e-8 leaves four orders of headroom.
  const double scale = fresh->L().FrobeniusNorm();
  EXPECT_LE(factor.L().MaxAbsDiff(fresh->L()), 1e-8 * scale);
}

TEST(CholUpdateTest, RejectsCorruptFactor) {
  Matrix l = Matrix::Identity(4);
  l(2, 2) = -1.0;  // Not a valid Cholesky factor.
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> work(4);
  EXPECT_FALSE(CholUpdate(&l, x, work));
}

TEST(CholUpdateTest, RejectsNonFiniteInput) {
  Matrix l = Matrix::Identity(4);
  std::vector<double> x = {0.1, std::numeric_limits<double>::quiet_NaN(),
                           0.3, 0.4};
  std::vector<double> work(4);
  EXPECT_FALSE(CholUpdate(&l, x, work));
}

TEST(CholeskyTest, ScaledIdentityMatchesFactorize) {
  const double lambda = 2.5;
  auto fresh = Cholesky::Factorize(Matrix::ScaledIdentity(6, lambda));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(Cholesky::ScaledIdentity(6, lambda).L(), fresh->L());
}

TEST(CholeskyTest, RankOneUpdateKeepsSolvesConsistent) {
  Pcg64 rng(108);
  const std::size_t d = 8;
  Matrix y = RandomSpd(d, rng);
  auto chol = Cholesky::Factorize(y);
  ASSERT_TRUE(chol.ok());
  Cholesky updated = *chol;
  const std::vector<double> x = RandomValues(d, rng);
  std::vector<double> work(d);
  ASSERT_TRUE(updated.RankOneUpdate(x, work));
  y.AddOuter(1.0, x);
  auto fresh = Cholesky::Factorize(y);
  ASSERT_TRUE(fresh.ok());
  const Vector probe(RandomValues(d, rng));
  EXPECT_NEAR(updated.InverseQuadraticForm(probe),
              fresh->InverseQuadraticForm(probe), 1e-10);
}

}  // namespace
}  // namespace fasea
