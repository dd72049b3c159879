// lazy-scale: the single-thread library loop the simulator drives —
// Policy::Propose / Learn — for UCB with the library-default learner over
// static event contexts delivered through the lazy context source,
// |V| = 10000, d = 15. It is the only workload whose rounds go through
// core/lazy_scorer and model/context_cache; no serving layer runs.
#include <memory>

#include "common.h"
#include "core/linear_policy_base.h"
#include "core/policy_factory.h"
#include "datagen/synthetic.h"
#include "obs/metrics.h"
#include "oracle/greedy.h"
#include "rng/seed.h"
#include "timing_env.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace fasea;

constexpr std::size_t kEvents = 10000;
constexpr std::size_t kDim = 15;
// Sparse conflicts (about ten per event) keep generation affordable: the
// library's random conflict graph decodes each sampled pair in O(|V|),
// so the paper's 0.25 takes about a minute per instance at |V| = 10^4.
constexpr double kConflictRatio = 0.001;
constexpr std::size_t kRing = 4096;     // Pre-generated rounds, cycled.
constexpr std::int64_t kPrefix = 200;   // Rounds checked against eager.

SyntheticConfig WorldConfig(std::uint64_t seed) {
  SyntheticConfig config;
  config.num_events = kEvents;
  config.dim = kDim;
  config.horizon = static_cast<std::int64_t>(kRing);
  config.event_capacity_mean = 1e9;  // No event runs out of seats.
  config.event_capacity_stddev = 0.0;
  config.conflict_ratio = kConflictRatio;
  config.seed = seed;
  config.static_contexts = true;
  config.lazy_contexts = true;
  return config;
}

struct LazySetup {
  std::unique_ptr<SyntheticWorld> world;
  std::unique_ptr<TimingContextSource> source;  // Traced runs only.
  std::vector<RoundContext> ring;
  std::unique_ptr<Policy> policy;
  std::unique_ptr<PlatformState> state;
};

std::unique_ptr<LazySetup> SetUp(const RunOptions& options) {
  auto s = std::make_unique<LazySetup>();
  auto world = SyntheticWorld::Create(WorldConfig(options.seed));
  FASEA_CHECK_OK(world.status());
  s->world = std::move(world).value();
  if (options.traced) {
    s->source =
        std::make_unique<TimingContextSource>(s->world->context_source());
  }
  s->ring.resize(kRing);
  for (std::size_t i = 0; i < kRing; ++i) {
    s->ring[i] =
        s->world->provider().NextRound(static_cast<std::int64_t>(i) + 1);
    if (s->source != nullptr) s->ring[i].source = s->source.get();
  }
  s->policy = MakePolicy(PolicyKind::kUcb, &s->world->instance(),
                         PolicyParams{},
                         DeriveSeed(options.seed, "perfbench-policy"));
  s->state = std::make_unique<PlatformState>(s->world->instance());
  return s;
}

/// Re-runs the first rounds with dense contexts — every row materialized
/// up front, as the eager static provider does — and the lazy run's
/// feedback: the lazy scorer promises bit-identical arrangements. Also
/// times the greedy oracle over dense UCB-estimate scores, which the
/// lazy path replaces with its own heap.
void CheckEagerPrefix(const LazySetup& setup, std::uint64_t policy_seed,
                      const std::vector<Arrangement>& arrangements,
                      const std::vector<Feedback>& feedbacks,
                      WorkloadResult* result) {
  const ProblemInstance& instance = setup.world->instance();
  RoundContext round;
  round.contexts = ContextMatrix(kEvents, kDim);
  for (EventId v = 0; v < kEvents; ++v) {
    setup.world->context_source()->Materialize(v, round.contexts.Row(v));
  }
  auto policy =
      MakePolicy(PolicyKind::kUcb, &instance, PolicyParams{}, policy_seed);
  PlatformState state(instance);
  GreedyOracle oracle;
  std::vector<double> scores(kEvents);
  std::int64_t select_ns = 0;
  for (std::size_t i = 0; i < arrangements.size(); ++i) {
    const std::int64_t t = static_cast<std::int64_t>(i) + 1;
    round.user_capacity = setup.ring[i].user_capacity;
    const Arrangement arrangement = policy->Propose(t, round, state);
    if (arrangement != arrangements[i]) {
      result->failures.push_back("lazy round " + std::to_string(t) +
                                 " differs from the eager replay");
      return;
    }
    policy->EstimateRewards(round.contexts, scores);
    const std::int64_t s0 = NowNs();
    {
      Span span(Layer::kOracle, "GreedyOracle::Select", t);
      oracle.Select(scores, instance.conflicts(), state, round.user_capacity);
    }
    select_ns += NowNs() - s0;
    for (std::size_t k = 0; k < arrangement.size(); ++k) {
      if (feedbacks[i][k]) state.ConsumeOne(arrangement[k]);
    }
    policy->Learn(t, round, arrangement, feedbacks[i]);
  }
  result->layer["oracle.select_us_per_user"] =
      select_ns / 1e3 / static_cast<double>(arrangements.size());
}

}  // namespace

WorkloadResult RunLazyScale(const RunOptions& options) {
  WorkloadResult result;
  std::vector<double> setup_s;
  std::unique_ptr<LazySetup> setup;
  for (int rep = 0; rep < kSetups; ++rep) {
    setup.reset();
    const std::int64_t t0 = NowNs();
    setup = SetUp(options);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  result.setup_s = std::move(setup_s);

  SyntheticWorld& world = *setup->world;
  Policy& policy = *setup->policy;
  PlatformState& state = *setup->state;
  const ProblemInstance& instance = world.instance();
  auto* linear = dynamic_cast<LinearPolicyBase*>(&policy);
  FASEA_CHECK(linear != nullptr);
  Counter* refactorizations =
      Metrics()->GetCounter("fasea.policy.refactorizations");

  if (options.traced) ResetSelfNanos();
  Pcg64 rng(DeriveSeed(options.seed, "perfbench-feedback"), 0);
  Samples& samples = result.samples;
  std::vector<std::int32_t> sizes;
  std::vector<Arrangement> prefix_arrangements;
  std::vector<Feedback> prefix_feedbacks;
  std::int64_t propose_ns = 0, learn_ns = 0, last_ack = 0, rounds_all = 0;
  // Counter values at the first measured round (-1: not reached yet).
  std::int64_t rescores0 = -1, hits0 = 0, misses0 = 0, evictions0 = 0,
               refactor0 = 0;
  const std::int64_t start = NowNs();
  const std::int64_t measure_from =
      start + static_cast<std::int64_t>(options.warmup_s * 1e9);
  const std::int64_t stop_at =
      measure_from + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::int64_t t = 1;; ++t) {
    const std::int64_t arrival = NowNs();
    if (arrival >= stop_at) break;
    const bool measured = arrival >= measure_from;
    const RoundContext& round =
        setup->ring[static_cast<std::size_t>(t - 1) % kRing];
    Arrangement arrangement;
    {
      Span span(Layer::kCore, "Policy::Propose", t);
      arrangement = policy.Propose(t, round, state);
    }
    const std::int64_t s1 = NowNs();
    if (measured && rescores0 < 0) {
      // The scorer and cache exist once the first lazy round ran.
      rescores0 = linear->lazy_scorer()->num_rescores();
      hits0 = linear->context_cache()->hits();
      misses0 = linear->context_cache()->misses();
      evictions0 = linear->context_cache()->evictions();
      refactor0 = refactorizations->value();
    }
    if (!IsFeasibleArrangement(arrangement, instance.conflicts(), state,
                               round.user_capacity)) {
      result.failures.push_back("infeasible proposal in round " +
                                std::to_string(t));
      break;
    }
    const Feedback feedback =
        world.feedback().Sample(t, round.contexts, arrangement, rng);
    for (std::size_t k = 0; k < arrangement.size(); ++k) {
      if (feedback[k]) state.ConsumeOne(arrangement[k]);
    }
    const std::int64_t f0 = NowNs();
    {
      Span span(Layer::kCore, "Policy::Learn", t);
      policy.Learn(t, round, arrangement, feedback);
    }
    const std::int64_t f1 = NowNs();
    last_ack = f1;
    ++rounds_all;
    if (t <= kPrefix) {
      prefix_arrangements.push_back(arrangement);
      prefix_feedbacks.push_back(feedback);
    }
    if (!measured) continue;
    samples.attempted += 2;
    samples.Add(arrival - measure_from, s1 - arrival, f1 - f0, f1 - arrival);
    samples.accepted += NumAccepted(feedback);
    samples.arranged += static_cast<std::int64_t>(arrangement.size());
    sizes.push_back(static_cast<std::int32_t>(arrangement.size()));
    propose_ns += s1 - arrival;
    learn_ns += f1 - f0;
  }
  result.measured_s = (last_ack - measure_from) / 1e9;
  const double n =
      static_cast<double>(std::max<std::size_t>(samples.round_ns.size(), 1));

  if (rescores0 < 0) {
    result.failures.push_back("no measured rounds");
    return result;
  }
  if (state.NumAvailableEvents() != static_cast<std::int64_t>(kEvents)) {
    result.failures.push_back("an event ran out of seats");
  }
  CheckArrangedSteady(sizes, &result.failures);
  const LazyScorer& scorer = *linear->lazy_scorer();
  const ContextCache& cache = *linear->context_cache();
  const double rescored_frac = (scorer.num_rescores() - rescores0) /
                               (n * static_cast<double>(kEvents));
  result.notes.push_back("rescored " + std::to_string(rescored_frac) +
                         " of |V| per round");

  if (options.traced) {
    // Read before the eager replay, whose Learn and oracle calls are not
    // rounds of this run.
    const std::int64_t hits = cache.hits() - hits0;
    const std::int64_t misses = cache.misses() - misses0;
    result.layer["core.propose_us"] = propose_ns / 1e3 / n;
    result.layer["core.learn_us"] = learn_ns / 1e3 / n;
    result.layer["core.rescored_frac"] = rescored_frac;
    result.layer["core.refactorizations_per_kround"] =
        (refactorizations->value() - refactor0) * 1000.0 / n;
    result.layer["model.cache_hit_rate"] =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
    result.layer["model.cache_evictions_per_round"] =
        (cache.evictions() - evictions0) / n;
    // Self time covers warmup and measured rounds alike.
    AddSelfTimes(static_cast<double>(rounds_all), &result.layer);
  }
  CheckEagerPrefix(*setup, DeriveSeed(options.seed, "perfbench-policy"),
                   prefix_arrangements, prefix_feedbacks, &result);
  return result;
}

}  // namespace perfbench
