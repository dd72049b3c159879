// Bounded-scale bench: pushes |V| and d one to two orders of magnitude
// past the paper's Table 5/6 sweeps (|V| <= 1000, d <= 50) using the
// epoch learner, the frequent-directions sketch and the lazy context
// pipeline, and prints machine-parseable `[scale] key=value` lines
// (BENCH_PR9.json holds an earlier revision's snapshot of them).
//
//   micro_scale             full sweep (|V|, learner mode, d and
//                           epoch-apply sections)
//   micro_scale --parity    small lazy-vs-eager + unit-epoch equivalence
//                           runs; exit code 0 iff every trajectory is
//                           bit-identical (tools/check.sh --scale-smoke)
//
// FASEA_SCALE shrinks the sweep horizons proportionally, same as the
// paper benches.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/epoch_ridge.h"
#include "core/policy_factory.h"
#include "core/ridge.h"
#include "core/ucb_policy.h"
#include "datagen/synthetic.h"
#include "rng/distributions.h"
#include "sim/experiment.h"

namespace fasea::bench {
namespace {

std::int64_t ScaledHorizon(std::int64_t full) {
  const double scale = EnvScale();
  const auto t = static_cast<std::int64_t>(static_cast<double>(full) * scale);
  return t < 50 ? 50 : t;
}

/// One closed UCB loop over a static world. Over the first `horizon`
/// rounds it sums the Propose nanoseconds and folds a trajectory checksum
/// (sum of arranged event ids per round) so the eager and lazy drives can
/// be cross-checked. Those rounds are the lazy scorer's warm-up: events
/// not yet rescored still carry the a-priori width bound. A lazy drive
/// then runs `steady_warmup` more rounds untimed and times the
/// `steady_rounds` after them.
struct DriveResult {
  std::int64_t propose_nanos = 0;
  std::uint64_t checksum = 0;
  std::int64_t num_rescores = 0;  // Lazy only, first `horizon` rounds.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t steady_nanos = 0;  // Lazy only.
};

DriveResult DriveUcb(std::size_t num_events, std::size_t dim,
                     std::int64_t horizon, bool lazy,
                     std::int64_t steady_warmup = 0,
                     std::int64_t steady_rounds = 0) {
  SyntheticConfig data;
  data.num_events = num_events;
  data.dim = dim;
  data.horizon = horizon;
  data.event_capacity_mean = 50.0;
  data.event_capacity_stddev = 0.0;
  data.seed = 20170514;
  data.static_contexts = true;
  data.lazy_contexts = lazy;
  auto world = SyntheticWorld::Create(data);
  FASEA_CHECK(world.ok());

  UcbParams params;
  params.learner.mode = LearnerMode::kEpoch;
  params.learner.epoch_length = 64;
  UcbPolicy ucb(&(*world)->instance(), params);
  PlatformState state((*world)->instance());
  Pcg64 feedback_rng(99);

  DriveResult result;
  const std::int64_t steady_from = horizon + steady_warmup;
  for (std::int64_t t = 1; t <= steady_from + steady_rounds; ++t) {
    const RoundContext& round = (*world)->provider().NextRound(t);
    const std::int64_t start = Stopwatch::NowNanos();
    const Arrangement arrangement = ucb.Propose(t, round, state);
    const std::int64_t nanos = Stopwatch::NowNanos() - start;
    if (t <= horizon) {
      result.propose_nanos += nanos;
      for (const EventId v : arrangement) {
        result.checksum = result.checksum * 1000003u + v + 1;
      }
    } else if (t > steady_from) {
      result.steady_nanos += nanos;
    }
    const Feedback feedback = (*world)->feedback().Sample(
        t, round.contexts, arrangement, feedback_rng);
    for (std::size_t i = 0; i < arrangement.size(); ++i) {
      if (feedback[i]) state.ConsumeOne(arrangement[i]);
    }
    ucb.Learn(t, round, arrangement, feedback);
    if (lazy && t == horizon) {
      FASEA_CHECK(ucb.lazy_scorer() != nullptr);
      FASEA_CHECK(ucb.context_cache() != nullptr);
      result.num_rescores = ucb.lazy_scorer()->num_rescores();
      result.cache_hits = ucb.context_cache()->hits();
      result.cache_misses = ucb.context_cache()->misses();
    }
  }
  return result;
}

/// |V| sweep: eager dense scoring vs the lazy cache + stale-bound orders.
/// lazy_round_us covers the first `horizon` rounds, steady_lazy_round_us
/// the rounds after a further warm-up.
void SweepEvents() {
  Section("Propose scaling in |V| (UCB, epoch-64 learner, d = 15)");
  const std::int64_t horizon = ScaledHorizon(200);
  const std::int64_t steady_warmup = ScaledHorizon(2000);
  const std::int64_t steady_rounds = ScaledHorizon(1000);
  for (const std::size_t v : {1000u, 2500u, 5000u, 10000u}) {
    const DriveResult eager = DriveUcb(v, 15, horizon, /*lazy=*/false);
    const DriveResult lazy = DriveUcb(v, 15, horizon, /*lazy=*/true,
                                      steady_warmup, steady_rounds);
    const double eager_us =
        static_cast<double>(eager.propose_nanos) / 1e3 / horizon;
    const double lazy_us =
        static_cast<double>(lazy.propose_nanos) / 1e3 / horizon;
    const double steady_us =
        static_cast<double>(lazy.steady_nanos) / 1e3 / steady_rounds;
    const double hit_rate =
        static_cast<double>(lazy.cache_hits) /
        static_cast<double>(lazy.cache_hits + lazy.cache_misses);
    const double rescored_frac =
        static_cast<double>(lazy.num_rescores) /
        (static_cast<double>(horizon) * static_cast<double>(v));
    std::printf(
        "[scale] sweep=V num_events=%zu dim=15 horizon=%lld "
        "eager_round_us=%.2f lazy_round_us=%.2f speedup=%.2f "
        "hit_rate=%.4f rescored_frac=%.4f match=%d "
        "steady_lazy_round_us=%.2f\n",
        v, static_cast<long long>(horizon), eager_us, lazy_us,
        lazy_us > 0.0 ? eager_us / lazy_us : 0.0, hit_rate, rescored_frac,
        eager.checksum == lazy.checksum ? 1 : 0, steady_us);
  }
  std::printf("\n");
}

/// Learner mode in the loop perfbench's lazy-scale workload runs: UCB on
/// static lazy contexts, |V| = 10000, d = 15, conflict ratio 0.001, no
/// event ever full, a ring of 4096 pre-generated rounds. After `warmup`
/// rounds it times each Propose and Learn of the next `timed` rounds,
/// exact rank-1 learner vs epoch-64. ROADMAP item 6's keep-or-delete
/// decision on kEpoch reads this section.
void SweepLearnerMode() {
  Section("Learner mode in the lazy-scale loop (UCB, |V| = 10000, d = 15)");
  const std::int64_t warmup = ScaledHorizon(200000);
  const std::int64_t timed = ScaledHorizon(200000);
  constexpr std::size_t kRing = 4096;
  SyntheticConfig data;
  data.num_events = 10000;
  data.dim = 15;
  data.horizon = static_cast<std::int64_t>(kRing);
  data.event_capacity_mean = 1e9;
  data.event_capacity_stddev = 0.0;
  data.conflict_ratio = 0.001;
  data.seed = 20170514;
  data.static_contexts = true;
  data.lazy_contexts = true;
  auto world = SyntheticWorld::Create(data);
  FASEA_CHECK(world.ok());
  std::vector<RoundContext> ring(kRing);
  for (std::size_t i = 0; i < kRing; ++i) {
    ring[i] =
        (*world)->provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }
  for (const bool epoch : {false, true}) {
    UcbParams params;
    if (epoch) {
      params.learner.mode = LearnerMode::kEpoch;
      params.learner.epoch_length = 64;
    }
    UcbPolicy ucb(&(*world)->instance(), params);
    PlatformState state((*world)->instance());
    Pcg64 feedback_rng(99);
    std::int64_t propose_nanos = 0, learn_nanos = 0;
    for (std::int64_t t = 1; t <= warmup + timed; ++t) {
      const RoundContext& round =
          ring[static_cast<std::size_t>(t - 1) % kRing];
      const std::int64_t t0 = Stopwatch::NowNanos();
      const Arrangement arrangement = ucb.Propose(t, round, state);
      const std::int64_t t1 = Stopwatch::NowNanos();
      const Feedback feedback = (*world)->feedback().Sample(
          t, round.contexts, arrangement, feedback_rng);
      for (std::size_t i = 0; i < arrangement.size(); ++i) {
        if (feedback[i]) state.ConsumeOne(arrangement[i]);
      }
      const std::int64_t t2 = Stopwatch::NowNanos();
      ucb.Learn(t, round, arrangement, feedback);
      const std::int64_t t3 = Stopwatch::NowNanos();
      if (t > warmup) {
        propose_nanos += t1 - t0;
        learn_nanos += t3 - t2;
      }
    }
    const double propose_us =
        static_cast<double>(propose_nanos) / 1e3 / static_cast<double>(timed);
    const double learn_us =
        static_cast<double>(learn_nanos) / 1e3 / static_cast<double>(timed);
    std::printf(
        "[scale] sweep=learner learner=%s num_events=10000 dim=15 "
        "timed_rounds=%lld propose_us=%.3f learn_us=%.3f round_us=%.3f\n",
        epoch ? "epoch64" : "exact", static_cast<long long>(timed),
        propose_us, learn_us, propose_us + learn_us);
  }
  std::printf("\n");
}

/// d sweep: the exact O(d²) learner UCB runs (no Cholesky factor) vs the
/// m = 32 sketch — memory and per-observation update cost.
void SweepDim() {
  Section("Learner scaling in d (exact vs frequent-directions m = 32)");
  const std::int64_t updates = 2048;
  Pcg64 rng(7);
  for (const std::size_t d : {20u, 150u, 200u, 400u}) {
    Matrix rows(static_cast<std::size_t>(updates), d);
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      double norm_sq = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        rows(i, j) = UniformReal(rng, -1.0, 1.0);
        norm_sq += rows(i, j) * rows(i, j);
      }
      const double inv = 1.0 / std::sqrt(norm_sq);
      for (std::size_t j = 0; j < d; ++j) rows(i, j) *= inv;
    }

    RidgeState exact(d, 1.0);
    std::int64_t start = Stopwatch::NowNanos();
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      exact.Update(rows.Row(i), 1.0);
    }
    const std::int64_t exact_nanos = Stopwatch::NowNanos() - start;

    LearnerConfig config;
    config.mode = LearnerMode::kSketch;
    config.sketch_size = 32;
    EpochRidgeState sketch(d, 1.0, config);
    start = Stopwatch::NowNanos();
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      sketch.Update(rows.Row(i), 1.0);
    }
    const std::int64_t sketch_nanos = Stopwatch::NowNanos() - start;

    std::printf(
        "[scale] sweep=d dim=%zu updates=%lld exact_bytes=%zu "
        "sketch_bytes=%zu mem_ratio=%.2f exact_update_us=%.3f "
        "sketch_update_us=%.3f\n",
        d, static_cast<long long>(updates), exact.MemoryBytes(),
        sketch.MemoryBytes(),
        static_cast<double>(exact.MemoryBytes()) /
            static_cast<double>(sketch.MemoryBytes()),
        static_cast<double>(exact_nanos) / 1e3 / updates,
        static_cast<double>(sketch_nanos) / 1e3 / updates);
  }
  std::printf("\n");
}

/// Epoch boundary: one rank-k block apply (RidgeState::ApplyBlock) vs k
/// rank-1 updates, on the learner each policy runs — UCB's (and every
/// other non-sampling policy's) keeps no Cholesky factor, TS's re-derives
/// one per block and rank-1 updates it per observation.
void SweepEpoch() {
  Section("Epoch boundary (rank-k block vs k rank-1 updates, d = 20, 100)");
  Pcg64 rng(11);
  for (const std::size_t d : {20u, 100u}) {
    for (const std::size_t k : {64u, 128u, 256u, 1024u}) {
      Matrix block(k, d);
      std::vector<double> rewards(k);
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          block(i, j) = UniformReal(rng, -1.0, 1.0) / std::sqrt(double(d));
        }
        rewards[i] = static_cast<double>(i % 2);
      }
      const int reps = d <= 20 ? 200 : 20;
      for (const bool ts : {false, true}) {
        RidgeState blocked(d, 1.0, /*refactor_every=*/0, ts);
        std::int64_t start = Stopwatch::NowNanos();
        for (int r = 0; r < reps; ++r) blocked.ApplyBlock(block, rewards);
        const std::int64_t block_nanos = Stopwatch::NowNanos() - start;

        RidgeState rank1(d, 1.0, /*refactor_every=*/0, ts);
        start = Stopwatch::NowNanos();
        for (int r = 0; r < reps; ++r) {
          for (std::size_t i = 0; i < k; ++i) {
            rank1.Update(block.Row(i), rewards[i]);
          }
        }
        const std::int64_t rank1_nanos = Stopwatch::NowNanos() - start;

        const double block_us =
            static_cast<double>(block_nanos) / 1e3 / reps / double(k);
        const double rank1_us =
            static_cast<double>(rank1_nanos) / 1e3 / reps / double(k);
        std::printf(
            "[scale] sweep=epoch learner=%s k=%zu dim=%zu "
            "block_us_per_obs=%.3f rank1_us_per_obs=%.3f speedup=%.2f\n",
            ts ? "ts" : "ucb", k, d, block_us, rank1_us,
            block_us > 0.0 ? rank1_us / block_us : 0.0);
      }
    }
  }
  std::printf("\n");
}

// ---- Parity mode ----

bool SameTrajectory(const TrajectoryResult& a, const TrajectoryResult& b) {
  return a.name == b.name && a.checkpoints == b.checkpoints &&
         a.cum_rewards == b.cum_rewards && a.cum_arranged == b.cum_arranged &&
         a.accept_ratio == b.accept_ratio &&
         a.total_regret == b.total_regret &&
         a.final_reward == b.final_reward &&
         a.final_arranged == b.final_arranged &&
         a.final_regret == b.final_regret;
}

int CompareResults(const char* what, const SimulationResult& a,
                   const SimulationResult& b) {
  int failures = 0;
  if (!SameTrajectory(a.reference, b.reference)) {
    std::printf("[scale] parity=%s policy=%s ok=0\n", what,
                a.reference.name.c_str());
    ++failures;
  }
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    const bool ok = i < b.policies.size() &&
                    SameTrajectory(a.policies[i], b.policies[i]);
    std::printf("[scale] parity=%s policy=%s ok=%d\n", what,
                a.policies[i].name.c_str(), ok ? 1 : 0);
    if (!ok) ++failures;
  }
  return failures;
}

/// Small lazy-vs-eager equivalence runs across all six policies plus the
/// unit-epoch learner; returns the number of diverging trajectories.
int RunParity() {
  SyntheticExperiment exp;
  exp.data.num_events = 150;
  exp.data.dim = 10;
  exp.data.horizon = ScaledHorizon(250);
  exp.data.event_capacity_mean = 20.0;
  exp.data.event_capacity_stddev = 5.0;
  exp.data.seed = 20170514;
  exp.data.static_contexts = true;
  exp.run_seed = 42;
  exp.kinds = AllPolicyKinds();
  exp.kinds.push_back(PolicyKind::kBoltzmann);

  const SimulationResult eager = RunSyntheticExperiment(exp);
  exp.data.lazy_contexts = true;
  const SimulationResult lazy = RunSyntheticExperiment(exp);
  int failures = CompareResults("lazy_vs_eager", eager, lazy);

  exp.params.learner.mode = LearnerMode::kEpoch;
  exp.params.learner.epoch_length = 1;
  const SimulationResult unit_epoch = RunSyntheticExperiment(exp);
  failures += CompareResults("unit_epoch_vs_exact", eager, unit_epoch);

  std::printf("[scale] parity_failures=%d\n", failures);
  return failures;
}

}  // namespace
}  // namespace fasea::bench

int main(int argc, char** argv) {
  bool parity = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--parity") == 0) {
      parity = true;
    } else {
      std::fprintf(stderr, "usage: %s [--parity]\n", argv[0]);
      return 2;
    }
  }
  fasea::bench::Banner("micro_scale",
                       parity ? "bounded-scale parity smoke"
                              : "bounded-scale sweeps beyond Tables 5/6");
  if (parity) {
    return fasea::bench::RunParity() == 0 ? 0 : 1;
  }
  fasea::bench::SweepEvents();
  fasea::bench::SweepLearnerMode();
  fasea::bench::SweepDim();
  fasea::bench::SweepEpoch();
  return 0;
}
