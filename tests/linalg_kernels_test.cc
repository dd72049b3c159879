// The batched kernels' contract is *bit*-equality with the scalar loops
// they replace (kernels.h), at every SIMD tier — these tests compare
// bits, not closeness. CholUpdate is the exception: a rank-1 update cannot be
// bit-identical to a fresh factorization, so its contract is a drift
// bound plus clean failure on corrupt input.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/cpu_features.h"
#include "linalg/cholesky.h"
#include "linalg/kernel_table.h"
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

// --- Every SIMD tier, bit for bit. Each tier the host supports runs
// through KernelTableFor and must reproduce the scalar references exactly,
// over shapes that straddle every register tile and tail, and over
// inputs with signed zeros, subnormals, infinities and NaNs.

constexpr std::size_t kTierRows[] = {0, 1, 2, 3, 4, 5, 7, 100};
// d = 129 exceeds BatchedQuadFormPre's 128-row stack buffer.
constexpr std::size_t kTierDims[] = {1,  2,  3,  4,  5,  7,  8,  9,
                                     15, 16, 17, 31, 33, 64, 129};

std::vector<const KernelTable*> HostTiers() {
  std::vector<const KernelTable*> tiers;
  for (SimdTier tier : kAllSimdTiers) {
    if (const KernelTable* table = KernelTableFor(tier)) {
      tiers.push_back(table);
    }
  }
  return tiers;
}

// Equal bits, except that any two NaNs match: which NaN payload survives
// an add of two NaNs depends on operand order, not on rounding.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Uniform values in [-1, 1]; with `specials`, about one entry in 40 is
// replaced by -0.0, a subnormal, ±∞ or NaN.
Matrix TierMatrix(std::size_t rows, std::size_t cols, bool specials,
                  Pcg64& rng) {
  constexpr double kSpecial[] = {
      -0.0, std::numeric_limits<double>::denorm_min(), -3.5e-310,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  Matrix m = RandomMatrix(rows, cols, rng);
  if (!specials) return m;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (UniformReal(rng, 0.0, 1.0) < 0.025) {
        m(i, j) = kSpecial[(i * cols + j) % std::size(kSpecial)];
      }
    }
  }
  return m;
}

#define EXPECT_SAME_BITS(actual, expected)                        \
  EXPECT_TRUE(SameBits(actual, expected))                         \
      << #actual << " = " << (actual) << ", expected " << (expected)

// GemvRows, and Matrix::MatVec through it, has one body for every tier.
TEST(GemvRowsTest, BitIdenticalToPerRowDot) {
  Pcg64 rng(101);
  for (bool specials : {false, true}) {
    for (std::size_t rows : kTierRows) {
      for (std::size_t d : kTierDims) {
        const Matrix a = TierMatrix(rows, d, specials, rng);
        const Matrix x = TierMatrix(1, d, specials, rng);
        std::vector<double> y(rows), y_matvec(rows);
        GemvRows(a, x.Row(0), y);
        a.MatVec(x.Row(0), y_matvec);
        for (std::size_t i = 0; i < rows; ++i) {
          const double expected = Dot(a.Row(i), x.Row(0));
          ASSERT_TRUE(SameBits(y[i], expected))
              << rows << "x" << d << " row " << i << ": " << y[i] << " vs "
              << expected;
          ASSERT_TRUE(SameBits(y_matvec[i], expected))
              << "MatVec " << rows << "x" << d << " row " << i;
        }
      }
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

TEST(KernelTierTest, HostTiersHaveTables) {
  EXPECT_EQ(KernelTableFor(HostSimdTier()), &ActiveKernels());
  ASSERT_NE(KernelTableFor(SimdTier::kSse2), nullptr);
  for (SimdTier tier : kAllSimdTiers) {
    const KernelTable* table = KernelTableFor(tier);
#if defined(__x86_64__)
    EXPECT_EQ(table != nullptr, HostSupports(tier)) << SimdTierName(tier);
#endif
    if (table != nullptr) {
      EXPECT_EQ(table->tier, tier);
    }
    std::printf("tier %s: %s\n", std::string(SimdTierName(tier)).c_str(),
                table != nullptr ? "runs here" : "not on this host");
  }
}

TEST(KernelTierTest, GemmAccumulateMatchesTripleLoop) {
  // (m, k, n): the scoring shape (rows × d times d × d), the epoch
  // block's (d × rows times rows × d), and non-square operands.
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes = {
      {3, 4, 5}, {17, 9, 22}, {40, 50, 8}, {1, 7, 130}, {6, 1, 19}};
  for (std::size_t rows : kTierRows) {
    for (std::size_t d : kTierDims) {
      shapes.emplace_back(rows, d, d);
      shapes.emplace_back(d, rows, d);
    }
  }
  for (const KernelTable* t : HostTiers()) {
    SCOPED_TRACE(SimdTierName(t->tier));
    Pcg64 rng(201);
    for (bool specials : {false, true}) {
      for (auto [m, k, n] : shapes) {
        // Onto a non-zero c: each output adds its k-terms to its prior
        // value.
        const Matrix a = TierMatrix(m, k, specials, rng);
        const Matrix b = TierMatrix(k, n, specials, rng);
        const Matrix c0 = TierMatrix(m, n, specials, rng);
        Matrix c = c0;
        t->gemm_accumulate(a.data(), m, b.data(), k, n, c.data());
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double sum = c0(i, j);
            for (std::size_t kk = 0; kk < k; ++kk) sum += a(i, kk) * b(kk, j);
            ASSERT_TRUE(SameBits(c(i, j), sum))
                << m << "x" << k << "x" << n << " at " << i << "," << j
                << ": " << c(i, j) << " vs " << sum;
          }
        }
      }
    }
  }
}

TEST(KernelTierTest, BatchedQuadFormMatchesQuadraticForm) {
  for (const KernelTable* t : HostTiers()) {
    SCOPED_TRACE(SimdTierName(t->tier));
    Pcg64 rng(202);
    Matrix at;
    for (bool specials : {false, true}) {
      for (std::size_t n : kTierRows) {
        for (std::size_t d : kTierDims) {
          const Matrix a = TierMatrix(d, d, specials, rng);
          const Matrix x = TierMatrix(n, d, specials, rng);
          TransposeInto(a, &at);
          std::vector<double> out(n, -1.0);
          t->batched_quad_form_pre(x.data(), n, at.data(), d, out.data());
          for (std::size_t v = 0; v < n; ++v) {
            ASSERT_TRUE(SameBits(out[v], a.QuadraticForm(x.Row(v))))
                << n << "x" << d << " row " << v << ": " << out[v] << " vs "
                << a.QuadraticForm(x.Row(v));
          }
        }
      }
    }
  }
}

TEST(KernelTierTest, AddOuterMatchesPlainLoop) {
  for (const KernelTable* t : HostTiers()) {
    SCOPED_TRACE(SimdTierName(t->tier));
    Pcg64 rng(203);
    for (bool specials : {false, true}) {
      for (std::size_t d : kTierDims) {
        const Matrix y0 = TierMatrix(d, d, specials, rng);
        const Matrix x = TierMatrix(1, d, specials, rng);
        for (double alpha : {1.0, -0.37}) {
          Matrix y = y0;
          t->add_outer(alpha, x.data(), d, y.data());
          for (std::size_t i = 0; i < d; ++i) {
            for (std::size_t j = 0; j < d; ++j) {
              const double expected = y0(i, j) + alpha * x(0, i) * x(0, j);
              ASSERT_TRUE(SameBits(y(i, j), expected))
                  << "d=" << d << " at " << i << "," << j << ": " << y(i, j)
                  << " vs " << expected;
            }
          }
        }
      }
    }
  }
}

TEST(KernelTierTest, PublicEntryPointsRunTheActiveTier) {
  Pcg64 rng(204);
  const Matrix a = RandomMatrix(7, 33, rng);
  const Matrix b = RandomMatrix(33, 17, rng);
  Matrix c = RandomMatrix(7, 17, rng);
  Matrix expected = c;
  GemmAccumulate(a, b, &c);
  ActiveKernels().gemm_accumulate(a.data(), 7, b.data(), 33, 17,
                                  expected.data());
  EXPECT_EQ(c, expected);
  Gemm(a, b, &c);  // Zeroes c first.
  expected.Fill(0.0);
  ActiveKernels().gemm_accumulate(a.data(), 7, b.data(), 33, 17,
                                  expected.data());
  EXPECT_EQ(c, expected);

  const Matrix contexts = RandomMatrix(9, 33, rng);
  Matrix at;
  TransposeInto(RandomMatrix(33, 33, rng), &at);
  std::vector<double> widths(9), widths_expected(9);
  BatchedQuadFormPre(contexts, at, widths);
  ActiveKernels().batched_quad_form_pre(contexts.data(), 9, at.data(), 33,
                                        widths_expected.data());
  EXPECT_EQ(widths, widths_expected);

  Matrix y = RandomMatrix(17, 17, rng);
  Matrix y_expected = y;
  const std::vector<double> x = RandomValues(17, rng);
  y.AddOuter(0.5, x);
  ActiveKernels().add_outer(0.5, x.data(), 17, y_expected.data());
  EXPECT_EQ(y, y_expected);
}

// The contraction guard. With an exact -1 accumulator, the product
// (1 + 2⁻³⁰)·(1 - 2⁻³⁰) = 1 - 2⁻⁶⁰ must round to 1 before the add and
// leave exactly 0; a fused multiply-add keeps -2⁻⁶⁰. A build that lets
// the compiler contract a·b + c in the kernels fails here, on every
// FMA-capable tier. The expected values are literals, so the test does
// not depend on how its own reference arithmetic was compiled.
TEST(KernelTierTest, NoTierFusesMultiplyAndAdd) {
  const double up = 1.0 + std::ldexp(1.0, -30);
  const double down = 1.0 - std::ldexp(1.0, -30);
  const double step = std::ldexp(1.0, -29);
  constexpr std::size_t d = 31;  // Every tile and tail width of every tier.
  for (const KernelTable* t : HostTiers()) {
    SCOPED_TRACE(SimdTierName(t->tier));
    // GEMM: c(i, j) = -1 + up·down.
    {
      constexpr std::size_t m = 7;
      const std::vector<double> a(m, up), b(d, down);
      std::vector<double> c(m * d, -1.0);
      t->gemm_accumulate(a.data(), m, b.data(), 1, d, c.data());
      for (double v : c) EXPECT_SAME_BITS(v, 0.0);
    }
    // Quadratic forms, once with the cancellation inside the G row's
    // k-sum and once inside the epilogue's i-sum; 5 rows = a full block
    // of every tier plus a tail row.
    for (bool in_epilogue : {false, true}) {
      constexpr std::size_t n = 5;
      Matrix x(n, d), at(d, d);
      for (std::size_t v = 0; v < n; ++v) {
        x(v, 0) = 1.0;
        x(v, 1) = up;
      }
      if (in_epilogue) {
        at(0, 0) = -1.0;  // G(v, 0) = -1, G(v, 1) = down.
        at(0, 1) = down;
      } else {
        for (std::size_t i = 0; i < d; ++i) {
          at(0, i) = -1.0;  // G(v, i) = -1 + up·down.
          at(1, i) = down;
        }
      }
      std::vector<double> out(n, -1.0);
      t->batched_quad_form_pre(x.data(), n, at.data(), d, out.data());
      for (double v : out) EXPECT_SAME_BITS(v, 0.0);
    }
    // Rank-1 update of an all -1 matrix by x = (up, down, up, ...).
    {
      std::vector<double> x(d), y(d * d, -1.0);
      for (std::size_t i = 0; i < d; ++i) x[i] = i % 2 == 0 ? up : down;
      t->add_outer(1.0, x.data(), d, y.data());
      for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          const double expected =
              i % 2 != j % 2 ? 0.0 : (i % 2 == 0 ? step : -step);
          EXPECT_SAME_BITS(y[i * d + j], expected) << i << "," << j;
        }
      }
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
