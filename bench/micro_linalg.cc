// google-benchmark microbenchmarks for the linear-algebra kernels on the
// bandit hot path: dot products, mat-vec, rank-1 updates, Cholesky,
// Sherman–Morrison, and MVN sampling.
#include <benchmark/benchmark.h>

#include <string>

#include "core/epoch_ridge.h"
#include "core/ridge.h"
#include "linalg/cholesky.h"
#include "linalg/frequent_directions.h"
#include "linalg/kernel_table.h"
#include "linalg/kernels.h"
#include "linalg/mvn.h"
#include "linalg/sherman_morrison.h"
#include "rng/distributions.h"

namespace fasea {
namespace {

Vector RandomVector(std::size_t n, Pcg64& rng) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = UniformReal(rng, -1.0, 1.0);
  return v;
}

Matrix RandomSpd(std::size_t n, Pcg64& rng) {
  Matrix m = Matrix::ScaledIdentity(n, static_cast<double>(n));
  for (int k = 0; k < 3 * static_cast<int>(n); ++k) {
    Vector x = RandomVector(n, rng);
    m.AddOuter(1.0, x.span());
  }
  return m;
}

void BM_Dot(benchmark::State& state) {
  Pcg64 rng(1);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const Vector a = RandomVector(d, rng), b = RandomVector(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
}
BENCHMARK(BM_Dot)->Arg(5)->Arg(20)->Arg(100);

void BM_MatVec(benchmark::State& state) {
  Pcg64 rng(2);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const Matrix m = RandomSpd(d, rng);
  const Vector x = RandomVector(d, rng);
  Vector y(d);
  for (auto _ : state) {
    m.MatVec(x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MatVec)->Arg(5)->Arg(20)->Arg(100);

void BM_QuadraticForm(benchmark::State& state) {
  Pcg64 rng(3);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const Matrix m = RandomSpd(d, rng);
  const Vector x = RandomVector(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.QuadraticForm(x.span()));
  }
}
BENCHMARK(BM_QuadraticForm)->Arg(5)->Arg(20)->Arg(100);

void BM_CholeskyFactorize(benchmark::State& state) {
  Pcg64 rng(4);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const Matrix m = RandomSpd(d, rng);
  for (auto _ : state) {
    auto chol = Cholesky::Factorize(m);
    benchmark::DoNotOptimize(chol);
  }
}
BENCHMARK(BM_CholeskyFactorize)
    ->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Arg(50)->Arg(100);

void BM_ShermanMorrisonUpdate(benchmark::State& state) {
  Pcg64 rng(5);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  SymmetricInverse inv(d, 1.0, /*refactor_every=*/0);
  const Vector x = RandomVector(d, rng);
  for (auto _ : state) {
    inv.RankOneUpdate(x.span());
    benchmark::DoNotOptimize(inv.inverse().data());
  }
}
BENCHMARK(BM_ShermanMorrisonUpdate)->Arg(5)->Arg(20)->Arg(100);

void BM_FullRefactorUpdate(benchmark::State& state) {
  // The O(d³) alternative per round (complexity the paper assumes).
  Pcg64 rng(6);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  Matrix y = RandomSpd(d, rng);
  const Vector x = RandomVector(d, rng);
  for (auto _ : state) {
    y.AddOuter(1.0, x.span());
    auto chol = Cholesky::Factorize(y);
    benchmark::DoNotOptimize(chol->Inverse());
  }
}
BENCHMARK(BM_FullRefactorUpdate)->Arg(5)->Arg(20)->Arg(100);

// --- Batched scoring kernels (kernels.h) against the per-event scalar
// loops they replace. range(0) = |V| (rows scored per round),
// range(1) = d. BENCH_PR4.json derives its kernel speedups from these.

Matrix RandomContexts(std::size_t n, std::size_t d, Pcg64& rng) {
  Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) m(i, j) = UniformReal(rng, -1.0, 1.0);
  }
  return m;
}

#define FASEA_BATCH_ARGS \
  ->Args({1000, 10})->Args({1000, 30})->Args({1000, 50})->Args({1000, 100})
// The width-kernel shapes perfbench's workloads run: one batched user at
// |V| = 100, d = 16; a 12-event shard partition at d = 16; a 1-row lazy
// rescore at d = 15.
#define FASEA_SERVING_WIDTH_ARGS \
  ->Args({100, 16})->Args({12, 16})->Args({1, 15})

void BM_GemvBatch(benchmark::State& state) {
  Pcg64 rng(8);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const Matrix contexts = RandomContexts(n, d, rng);
  const Vector theta = RandomVector(d, rng);
  std::vector<double> out(n);
  for (auto _ : state) {
    GemvRows(contexts, theta.span(), out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GemvBatch) FASEA_BATCH_ARGS;

void BM_GemvScalar(benchmark::State& state) {
  Pcg64 rng(8);  // Same stream as BM_GemvBatch: identical inputs.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const Matrix contexts = RandomContexts(n, d, rng);
  const Vector theta = RandomVector(d, rng);
  std::vector<double> out(n);
  for (auto _ : state) {
    for (std::size_t v = 0; v < n; ++v) {
      out[v] = Dot(contexts.Row(v), theta.span());
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GemvScalar) FASEA_BATCH_ARGS;

void BM_WidthBatch(benchmark::State& state) {
  Pcg64 rng(9);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const Matrix contexts = RandomContexts(n, d, rng);
  const Matrix y_inv = RandomSpd(d, rng);
  std::vector<double> out(n);
  Matrix at;
  for (auto _ : state) {
    TransposeInto(y_inv, &at);
    BatchedQuadFormPre(contexts, at, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_WidthBatch) FASEA_BATCH_ARGS FASEA_SERVING_WIDTH_ARGS;

void BM_WidthScalar(benchmark::State& state) {
  Pcg64 rng(9);  // Same stream as BM_WidthBatch: identical inputs.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const Matrix contexts = RandomContexts(n, d, rng);
  const Matrix y_inv = RandomSpd(d, rng);
  std::vector<double> out(n);
  for (auto _ : state) {
    for (std::size_t v = 0; v < n; ++v) {
      out[v] = y_inv.QuadraticForm(contexts.Row(v));
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_WidthScalar) FASEA_BATCH_ARGS FASEA_SERVING_WIDTH_ARGS;

// --- The same kernels at every SIMD tier the host supports
// (kernel_table.h), registered as BM_WidthBatchTier_<tier>/n/d and
// BM_ShermanMorrisonTier_<tier>/d. BM_WidthBatch above runs the active
// tier; tools/check.sh --perf-smoke compares it with the SSE2 row.

void BM_WidthBatchTier(benchmark::State& state, const KernelTable* tier) {
  Pcg64 rng(9);  // Same stream as BM_WidthBatch: identical inputs.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const Matrix contexts = RandomContexts(n, d, rng);
  const Matrix y_inv = RandomSpd(d, rng);
  std::vector<double> out(n);
  Matrix at;
  for (auto _ : state) {
    TransposeInto(y_inv, &at);
    tier->batched_quad_form_pre(contexts.data(), n, at.data(), d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}

// SymmetricInverse::RankOneUpdate's steps at one tier: Y += xxᵀ,
// u = Y⁻¹x, Y⁻¹ -= uuᵀ / (1 + xᵀu).
void BM_ShermanMorrisonTier(benchmark::State& state,
                            const KernelTable* tier) {
  Pcg64 rng(5);  // Same stream as BM_ShermanMorrisonUpdate.
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  Matrix y = Matrix::Identity(d), y_inv = Matrix::Identity(d);
  const Vector x = RandomVector(d, rng);
  Vector u(d);
  for (auto _ : state) {
    tier->add_outer(1.0, x.data(), d, y.data());
    y_inv.MatVec(x.span(), u.span());
    const double denom = 1.0 + Dot(x.span(), u.span());
    tier->add_outer(-1.0 / denom, u.data(), d, y_inv.data());
    benchmark::DoNotOptimize(y_inv.data());
    benchmark::ClobberMemory();
  }
}

const bool kTierBenchmarks = [] {
  for (SimdTier tier : kAllSimdTiers) {
    const KernelTable* table = KernelTableFor(tier);
    if (table == nullptr) continue;
    const std::string name(SimdTierName(tier));
    benchmark::RegisterBenchmark(("BM_WidthBatchTier_" + name).c_str(),
                                 BM_WidthBatchTier, table)
        ->Args({100, 16})->Args({12, 16})->Args({1, 15});
    benchmark::RegisterBenchmark(("BM_ShermanMorrisonTier_" + name).c_str(),
                                 BM_ShermanMorrisonTier, table)
        ->Arg(16)->Arg(100);
  }
  return true;
}();

void BM_CholUpdate(benchmark::State& state) {
  // The O(d²) incremental factor update; BM_CholeskyFactorize at the same
  // d is the O(d³) per-round alternative it replaces in TS.
  Pcg64 rng(10);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  Cholesky factor = Cholesky::ScaledIdentity(d, 1.0);
  const Vector x = RandomVector(d, rng);
  std::vector<double> work(d);
  for (auto _ : state) {
    const bool ok = factor.RankOneUpdate(x.span(), work);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CholUpdate)->Arg(10)->Arg(30)->Arg(50)->Arg(100);

// --- Epoch-boundary block apply (sherman_morrison.h ApplyBlock) against
// the k sequential rank-1 updates it amortizes. range(0) = k (epoch
// length), range(1) = d. The block path pays one GEMM + one O(d³)
// refactorization per epoch instead of k O(d²) Sherman–Morrison steps;
// BENCH_PR9.json derives its epoch-apply speedups from this pair.

#define FASEA_EPOCH_ARGS \
  ->Args({64, 20})->Args({128, 20})->Args({256, 20})->Args({64, 100}) \
  ->Args({128, 100})->Args({256, 100})->Args({1024, 100})

void BM_EpochApplyBlock(benchmark::State& state) {
  Pcg64 rng(11);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  SymmetricInverse inv(d, 1.0, /*refactor_every=*/0);
  const Matrix block = RandomContexts(k, d, rng);
  for (auto _ : state) {
    inv.ApplyBlock(block);
    benchmark::DoNotOptimize(inv.inverse().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_EpochApplyBlock) FASEA_EPOCH_ARGS;

void BM_EpochApplyRankOne(benchmark::State& state) {
  Pcg64 rng(11);  // Same stream as BM_EpochApplyBlock: identical inputs.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  SymmetricInverse inv(d, 1.0, /*refactor_every=*/0);
  const Matrix block = RandomContexts(k, d, rng);
  for (auto _ : state) {
    for (std::size_t i = 0; i < k; ++i) inv.RankOneUpdate(block.Row(i));
    benchmark::DoNotOptimize(inv.inverse().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_EpochApplyRankOne) FASEA_EPOCH_ARGS;

// --- Frequent-directions sketch kernels (frequent_directions.h): the
// amortized append (shrink every m rows) and the O(m·d) sketched width
// against the O(d²) exact quadratic form at the same d.

void BM_SketchAppend(benchmark::State& state) {
  Pcg64 rng(12);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 32;
  FrequentDirections fd(d, m);
  const Matrix rows = RandomContexts(4 * m, d, rng);
  std::size_t next = 0;
  for (auto _ : state) {
    fd.Append(rows.Row(next));
    next = (next + 1) % rows.rows();
    benchmark::DoNotOptimize(fd.rank());
  }
}
BENCHMARK(BM_SketchAppend)->Arg(50)->Arg(150)->Arg(400);

void BM_SketchWidth(benchmark::State& state) {
  // Woodbury width against an m = 32 sketch: O(m·d) per probe.
  Pcg64 rng(13);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  LearnerConfig config;
  config.mode = LearnerMode::kSketch;
  config.sketch_size = 32;
  EpochRidgeState sketch(d, 1.0, config);
  const Matrix train = RandomContexts(256, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    sketch.Update(train.Row(i), 1.0);
  }
  const Vector x = RandomVector(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.ConfidenceWidthSq(x.span()));
  }
}
BENCHMARK(BM_SketchWidth)->Arg(50)->Arg(150)->Arg(400);

void BM_ExactWidth(benchmark::State& state) {
  // The O(d²) exact width the sketch replaces, same d sweep.
  Pcg64 rng(13);  // Same stream as BM_SketchWidth: identical inputs.
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  RidgeState ridge(d, 1.0);
  const Matrix train = RandomContexts(256, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    ridge.Update(train.Row(i), 1.0);
  }
  const Vector x = RandomVector(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ridge.ConfidenceWidthSq(x.span()));
  }
}
BENCHMARK(BM_ExactWidth)->Arg(50)->Arg(150)->Arg(400);

void BM_MvnSample(benchmark::State& state) {
  Pcg64 rng(7);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const Matrix y = RandomSpd(d, rng);
  auto chol = Cholesky::Factorize(y);
  const Vector mean = RandomVector(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SampleMvnFromPrecision(rng, mean, 2.0, chol.value()));
  }
}
BENCHMARK(BM_MvnSample)->Arg(5)->Arg(20)->Arg(100);

}  // namespace
}  // namespace fasea

BENCHMARK_MAIN();
