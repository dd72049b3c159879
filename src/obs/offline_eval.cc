#include "obs/offline_eval.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "core/linear_policy_base.h"
#include "model/platform_state.h"
#include "obs/metrics.h"

namespace fasea {

namespace {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double SampleStdDev(const std::vector<double>& xs, double mean) {
  if (xs.size() < 2) return 0.0;
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

EstimatorResult NormalEstimate(const std::vector<double>& terms, double z) {
  EstimatorResult r;
  r.mean = Mean(terms);
  const double sd = SampleStdDev(terms, r.mean);
  r.std_error =
      terms.empty() ? 0.0 : sd / std::sqrt(static_cast<double>(terms.size()));
  r.ci_low = r.mean - z * r.std_error;
  r.ci_high = r.mean + z * r.std_error;
  return r;
}

}  // namespace

OfflineEvaluator::OfflineEvaluator(const ProblemInstance* instance,
                                   DecisionLogScan log,
                                   std::vector<InteractionRecord> outcomes,
                                   RoundRegenerator regenerate)
    : instance_(instance),
      log_(std::move(log)),
      outcomes_(std::move(outcomes)),
      regenerate_(std::move(regenerate)),
      direct_model_(instance->dim(),
                    log_.header.lambda > 0.0 ? log_.header.lambda : 1.0) {
  FASEA_CHECK(instance_ != nullptr);
  // Outcomes come from a recovered WAL: already duplicate-collapsed, but
  // index by round with last-wins anyway so a re-served round pairs with
  // the decision that actually stood.
  std::unordered_map<std::int64_t, std::size_t> outcome_by_round;
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    outcome_by_round[outcomes_[i].t] = i;
  }
  for (const DecisionRecord& decision : log_.records) {
    auto it = outcome_by_round.find(decision.round);
    if (it == outcome_by_round.end()) {
      // The proposal was durable but its feedback never was (torn tail,
      // crash before SubmitFeedback): no reward to weight.
      ++unmatched_decisions_;
      continue;
    }
    const InteractionRecord& outcome = outcomes_[it->second];
    if (outcome.arrangement != decision.arrangement) {
      ++pairing_mismatches_;
      continue;
    }
    pairs_.push_back(MatchedExample{&decision, &outcome});
  }
  // Direct model: one ridge fit over every matched (context, reward)
  // observation, frozen before any candidate is evaluated. (In-sample by
  // construction — the DR bias guard is the importance-weighted residual
  // term, not a held-out fit.)
  for (const MatchedExample& ex : pairs_) {
    for (std::size_t i = 0; i < ex.outcome->arrangement.size(); ++i) {
      direct_model_.Update(ex.outcome->contexts[i],
                           static_cast<double>(ex.outcome->feedback[i]));
    }
  }
}

double OfflineEvaluator::DirectValue(std::span<const double> scores,
                                     const Arrangement& arrangement) {
  double value = 0.0;
  for (EventId v : arrangement) {
    value += std::clamp(scores[v], 0.0, 1.0);  // Rewards live in {0,1}.
  }
  return value;
}

OfflineEvalResult OfflineEvaluator::Evaluate(
    Policy* candidate, const OfflineEvalOptions& options) const {
  FASEA_CHECK(candidate != nullptr);
  FASEA_CHECK(options.propensity_floor > 0.0);
  OfflineEvalResult res;
  res.candidate_id = std::string(candidate->name());
  res.skipped_no_outcome = unmatched_decisions_;
  res.skipped_pairing_mismatch = pairing_mismatches_;

  auto* linear = dynamic_cast<LinearPolicyBase*>(candidate);
  PlatformState state(*instance_);
  std::vector<double> scores(instance_->num_events());
  std::vector<double> weights, rewards, ips_terms, dr_terms;
  RoundContext learn_scratch;
  learn_scratch.contexts = ContextMatrix(instance_->num_events(),
                                         instance_->dim());

  for (const MatchedExample& ex : pairs_) {
    const DecisionRecord& decision = *ex.decision;
    const InteractionRecord& outcome = *ex.outcome;
    const RoundContext round = regenerate_(decision.round);
    if (HashRoundContext(round) == decision.context_hash) {
      if (linear != nullptr &&
          linear->ridge().num_observations() != decision.theta_version) {
        ++res.theta_version_mismatches;
      }
      double p_b = decision.propensity;
      double p_c = candidate->PropensityOf(decision.round, round, state,
                                           decision.arrangement);
      if (p_b < options.propensity_floor) {
        p_b = options.propensity_floor;
        ++res.clipped_propensities;
      }
      if (p_c < options.propensity_floor) {
        p_c = options.propensity_floor;
        ++res.clipped_propensities;
      }
      const double w = p_c / p_b;
      const double r = static_cast<double>(NumAccepted(outcome.feedback));
      const Arrangement candidate_action =
          candidate->Propose(decision.round, round, state);
      direct_model_.PredictBatch(round.contexts, scores);
      const double q_logged = DirectValue(scores, decision.arrangement);
      const double q_candidate = DirectValue(scores, candidate_action);
      weights.push_back(w);
      rewards.push_back(r);
      ips_terms.push_back(w * r);
      dr_terms.push_back(q_candidate + w * (r - q_logged));
    } else {
      // Regeneration does not reproduce what the policy saw: the example
      // cannot be estimated, but the outcome still drives learning and
      // capacity so later rounds stay on the logged trajectory.
      ++res.skipped_context_mismatch;
    }
    if (options.learn_from_log) {
      // The outcome record carries the exact context rows the behavior
      // learner consumed — bit-identical progressive replay.
      FeedInteractionRecord(outcome, instance_->num_events(),
                            instance_->dim(), candidate, &learn_scratch);
    }
    for (std::size_t i = 0; i < outcome.arrangement.size(); ++i) {
      if (outcome.feedback[i]) state.ConsumeOne(outcome.arrangement[i]);
    }
  }

  res.examples = static_cast<std::int64_t>(ips_terms.size());
  res.observed_mean_reward = Mean(rewards);
  res.mean_weight = Mean(weights);
  double w_sum = 0.0, w_sq_sum = 0.0;
  for (double w : weights) {
    w_sum += w;
    w_sq_sum += w * w;
  }
  res.effective_sample_size =
      w_sq_sum > 0.0 ? (w_sum * w_sum) / w_sq_sum : 0.0;

  res.ips = NormalEstimate(ips_terms, options.confidence_z);
  // SNIPS: ratio estimator; its spread is the spread of the normalized
  // residuals w (r − mean) / w̄.
  res.snips.mean = w_sum > 0.0 ? Mean(ips_terms) * static_cast<double>(
                                     ips_terms.size()) / w_sum
                               : 0.0;
  {
    std::vector<double> residuals;
    residuals.reserve(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      residuals.push_back(res.mean_weight > 0.0
                              ? weights[i] * (rewards[i] - res.snips.mean) /
                                    res.mean_weight
                              : 0.0);
    }
    const EstimatorResult spread =
        NormalEstimate(residuals, options.confidence_z);
    res.snips.std_error = spread.std_error;
    res.snips.ci_low = res.snips.mean - options.confidence_z *
                                            res.snips.std_error;
    res.snips.ci_high = res.snips.mean + options.confidence_z *
                                             res.snips.std_error;
  }
  res.dr = NormalEstimate(dr_terms, options.confidence_z);

  // Diagnostics for scrapers; per-run values are also in the result.
  Metrics()->GetCounter("fasea.replay.examples")->Add(res.examples);
  Metrics()
      ->GetCounter("fasea.replay.clipped_propensities")
      ->Add(res.clipped_propensities);
  Metrics()
      ->GetCounter("fasea.replay.context_mismatches")
      ->Add(res.skipped_context_mismatch);
  Metrics()
      ->GetCounter("fasea.replay.unmatched_decisions")
      ->Add(res.skipped_no_outcome);
  Metrics()
      ->GetCounter("fasea.replay.theta_version_mismatches")
      ->Add(res.theta_version_mismatches);
  Metrics()->GetGauge("fasea.replay.effective_sample_size")
      ->Set(res.effective_sample_size);
  Metrics()->GetGauge("fasea.replay.mean_weight")->Set(res.mean_weight);
  return res;
}

}  // namespace fasea
