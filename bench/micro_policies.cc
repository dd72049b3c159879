// google-benchmark microbenchmarks for a full policy round
// (Propose + feedback + Learn) across |V| and d — the per-user online
// latency an EBSN platform would pay (paper Tables 5 and 6 in micro
// form).
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/linear_policy_base.h"
#include "core/policy_factory.h"
#include "datagen/synthetic.h"
#include "rng/seed.h"

namespace fasea {
namespace {

struct World {
  std::unique_ptr<SyntheticWorld> world;
  std::unique_ptr<Policy> policy;
  PlatformState state;
  Pcg64 feedback_rng{1};
};

World MakeWorld(PolicyKind kind, std::size_t num_events, std::size_t dim) {
  SyntheticConfig config;
  config.num_events = num_events;
  config.dim = dim;
  config.horizon = 1;
  config.event_capacity_mean = 1e9;  // Never exhaust inside the benchmark.
  config.event_capacity_stddev = 0.0;
  config.seed = 11;
  auto world = SyntheticWorld::Create(config);
  FASEA_CHECK(world.ok());
  World w{std::move(world).value(), nullptr, {}, Pcg64(5)};
  w.policy = MakePolicy(kind, &w.world->instance(), PolicyParams{}, 3);
  w.state = PlatformState(w.world->instance());
  return w;
}

void RunRounds(benchmark::State& state, PolicyKind kind) {
  const std::size_t num_events = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = static_cast<std::size_t>(state.range(1));
  World w = MakeWorld(kind, num_events, dim);
  std::int64_t t = 0;
  for (auto _ : state) {
    ++t;
    const RoundContext& round = w.world->provider().NextRound(t % 1000 + 1);
    const Arrangement a = w.policy->Propose(t, round, w.state);
    const Feedback fb =
        w.world->feedback().Sample(t, round.contexts, a, w.feedback_rng);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (fb[i]) w.state.ConsumeOne(a[i]);
    }
    w.policy->Learn(t, round, a, fb);
    benchmark::DoNotOptimize(a);
  }
}

void BM_UcbRound(benchmark::State& state) {
  RunRounds(state, PolicyKind::kUcb);
}
void BM_TsRound(benchmark::State& state) {
  RunRounds(state, PolicyKind::kTs);
}
void BM_EGreedyRound(benchmark::State& state) {
  RunRounds(state, PolicyKind::kEpsGreedy);
}
void BM_ExploitRound(benchmark::State& state) {
  RunRounds(state, PolicyKind::kExploit);
}
void BM_RandomRound(benchmark::State& state) {
  RunRounds(state, PolicyKind::kRandom);
}

#define FASEA_POLICY_ARGS          \
  ->Args({100, 20})                \
      ->Args({500, 20})            \
      ->Args({1000, 20})           \
      ->Args({500, 5})             \
      ->Args({500, 40})

BENCHMARK(BM_UcbRound) FASEA_POLICY_ARGS;
BENCHMARK(BM_TsRound) FASEA_POLICY_ARGS;
BENCHMARK(BM_EGreedyRound) FASEA_POLICY_ARGS;
BENCHMARK(BM_ExploitRound) FASEA_POLICY_ARGS;
BENCHMARK(BM_RandomRound) FASEA_POLICY_ARGS;

// --- Propose-only. 64 warm-up learning rounds make Y, θ̂, and TS's
// maintained factor representative before timing starts; the timed loop
// never Learns, so these isolate the scoring path. BM_UcbProposeScalar
// times the per-event reference UCB's batched kernels replaced — one
// RidgeState PredictedReward + ConfidenceWidthSq pair per event, then
// the same GreedyOracle — so the UCB pair is the kernels' A/B (and the
// perf-smoke gate in tools/check.sh). The UCB d=50 and TS d≥30 speedups
// frozen in BENCH_PR4.json came from such pairs.
World WarmUp(benchmark::State& state, PolicyKind kind, std::int64_t* t) {
  const std::size_t num_events = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = static_cast<std::size_t>(state.range(1));
  World w = MakeWorld(kind, num_events, dim);
  for (*t = 0; *t < 64; ++*t) {
    const RoundContext& round = w.world->provider().NextRound(*t % 1000 + 1);
    const Arrangement a = w.policy->Propose(*t + 1, round, w.state);
    const Feedback fb = w.world->feedback().Sample(*t + 1, round.contexts, a,
                                                   w.feedback_rng);
    w.policy->Learn(*t + 1, round, a, fb);
  }
  return w;
}

void RunProposeOnly(benchmark::State& state, PolicyKind kind) {
  std::int64_t t = 0;
  World w = WarmUp(state, kind, &t);
  // One fixed round for the timed loop: regenerating contexts per
  // iteration would time the synthetic data generator, not the policy.
  const RoundContext& round = w.world->provider().NextRound(1);
  for (auto _ : state) {
    ++t;
    const Arrangement a = w.policy->Propose(t, round, w.state);
    benchmark::DoNotOptimize(a);
  }
}

void BM_UcbProposeBatched(benchmark::State& state) {
  RunProposeOnly(state, PolicyKind::kUcb);
}
void BM_UcbProposeScalar(benchmark::State& state) {
  std::int64_t t = 0;
  World w = WarmUp(state, PolicyKind::kUcb, &t);
  const RidgeState& ridge =
      static_cast<const LinearPolicyBase&>(*w.policy).ridge();
  const double alpha = PolicyParams{}.alpha;
  const ProblemInstance& instance = w.world->instance();
  const RoundContext& round = w.world->provider().NextRound(1);
  std::vector<double> scores(round.contexts.rows());
  GreedyOracle oracle;
  for (auto _ : state) {
    for (std::size_t v = 0; v < scores.size(); ++v) {
      const std::span<const double> x = round.contexts.Row(v);
      scores[v] = ridge.PredictedReward(x) +
                  alpha * std::sqrt(ridge.ConfidenceWidthSq(x));
    }
    ApplyAvailabilityMask(round, scores);
    const Arrangement a = oracle.Select(scores, instance.conflicts(),
                                        w.state, round.user_capacity);
    benchmark::DoNotOptimize(a);
  }
}
void BM_TsProposeBatched(benchmark::State& state) {
  RunProposeOnly(state, PolicyKind::kTs);
}
void BM_EGreedyProposeBatched(benchmark::State& state) {
  RunProposeOnly(state, PolicyKind::kEpsGreedy);
}
void BM_ExploitProposeBatched(benchmark::State& state) {
  RunProposeOnly(state, PolicyKind::kExploit);
}

#define FASEA_PROPOSE_ARGS         \
  ->Args({1000, 20})               \
      ->Args({1000, 50})           \
      ->Args({100, 30})            \
      ->Args({100, 50})            \
      ->Args({100, 100})

BENCHMARK(BM_UcbProposeBatched) FASEA_PROPOSE_ARGS;
BENCHMARK(BM_UcbProposeScalar) FASEA_PROPOSE_ARGS;
BENCHMARK(BM_TsProposeBatched) FASEA_PROPOSE_ARGS;
BENCHMARK(BM_EGreedyProposeBatched) FASEA_PROPOSE_ARGS;
BENCHMARK(BM_ExploitProposeBatched) FASEA_PROPOSE_ARGS;

// Random's Propose alone: the availability row, the keyed engine and one
// random selection over the policy's reused scratch.
void BM_RandomPropose(benchmark::State& state) {
  RunProposeOnly(state, PolicyKind::kRandom);
}
BENCHMARK(BM_RandomPropose)->Args({100, 20})->Args({1000, 20});

// --- Learn-only: one fixed round, the same 5-event arrangement and
// feedback folded in per call (|V| = 100; the arg is d). Only TS's
// learner keeps a Cholesky factor, so UCB's Learn skips the factor's
// O(d²) rank-1 update and its re-derivations on the refactor cadence —
// the pair is the perf-smoke gate in tools/check.sh.
void RunLearnOnly(benchmark::State& state, PolicyKind kind) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  World w = MakeWorld(kind, /*num_events=*/100, dim);
  const RoundContext& round = w.world->provider().NextRound(1);
  const Arrangement a = {3, 17, 42, 64, 91};
  const Feedback fb = {1, 0, 0, 1, 0};
  std::int64_t t = 0;
  for (auto _ : state) {
    ++t;
    w.policy->Learn(t, round, a, fb);
    benchmark::ClobberMemory();
  }
}

void BM_UcbLearn(benchmark::State& state) {
  RunLearnOnly(state, PolicyKind::kUcb);
}
void BM_TsLearn(benchmark::State& state) {
  RunLearnOnly(state, PolicyKind::kTs);
}
BENCHMARK(BM_UcbLearn)->Arg(15)->Arg(50);
BENCHMARK(BM_TsLearn)->Arg(15)->Arg(50);

}  // namespace
}  // namespace fasea

BENCHMARK_MAIN();
