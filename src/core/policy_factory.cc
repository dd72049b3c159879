#include "core/policy_factory.h"

#include "core/boltzmann_policy.h"
#include "core/eps_greedy_policy.h"
#include "core/random_policy.h"
#include "core/ts_policy.h"
#include "core/ucb_policy.h"
#include "rng/seed.h"

namespace fasea {

std::string_view PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kUcb:
      return "UCB";
    case PolicyKind::kTs:
      return "TS";
    case PolicyKind::kEpsGreedy:
      return "eGreedy";
    case PolicyKind::kExploit:
      return "Exploit";
    case PolicyKind::kRandom:
      return "Random";
    case PolicyKind::kBoltzmann:
      return "Boltzmann";
  }
  return "Unknown";
}

std::unique_ptr<Policy> MakePolicy(PolicyKind kind,
                                   const ProblemInstance* instance,
                                   const PolicyParams& params,
                                   std::uint64_t seed) {
  switch (kind) {
    case PolicyKind::kUcb: {
      UcbParams p;
      p.lambda = params.lambda;
      p.alpha = params.alpha;
      p.learner = params.learner;
      auto policy = std::make_unique<UcbPolicy>(instance, p);
      policy->set_cache_budget(params.cache_budget);
      return policy;
    }
    case PolicyKind::kTs: {
      TsParams p;
      p.lambda = params.lambda;
      p.delta = params.delta;
      p.learner = params.learner;
      auto policy =
          std::make_unique<TsPolicy>(instance, p, DeriveSeed(seed, "ts"));
      policy->set_cache_budget(params.cache_budget);
      return policy;
    }
    case PolicyKind::kEpsGreedy: {
      EpsGreedyParams p;
      p.lambda = params.lambda;
      p.epsilon = params.epsilon;
      p.learner = params.learner;
      auto policy = std::make_unique<EpsGreedyPolicy>(
          instance, p, DeriveSeed(seed, "egreedy"));
      policy->set_cache_budget(params.cache_budget);
      return policy;
    }
    case PolicyKind::kExploit: {
      auto policy =
          MakeExploitPolicy(instance, params.lambda, params.learner);
      policy->set_cache_budget(params.cache_budget);
      return policy;
    }
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>(instance,
                                            DeriveSeed(seed, "random"));
    case PolicyKind::kBoltzmann: {
      BoltzmannParams p;
      p.lambda = params.lambda;
      p.temperature = params.temperature;
      p.learner = params.learner;
      auto policy = std::make_unique<BoltzmannPolicy>(
          instance, p, DeriveSeed(seed, "boltzmann"));
      policy->set_cache_budget(params.cache_budget);
      return policy;
    }
  }
  FASEA_CHECK(false && "unknown policy kind");
  return nullptr;
}

std::vector<PolicyKind> AllPolicyKinds() {
  return {PolicyKind::kUcb, PolicyKind::kTs, PolicyKind::kEpsGreedy,
          PolicyKind::kExploit, PolicyKind::kRandom};
}

}  // namespace fasea
