#include "ebsn/interaction_log.h"

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "core/linear_policy_base.h"
#include "rng/distributions.h"

namespace fasea {
namespace {

InteractionRecord Record(std::int64_t t, std::int64_t user, std::int64_t cap,
                         Arrangement arrangement, Feedback feedback,
                         std::size_t dim) {
  InteractionRecord record;
  record.t = t;
  record.user_id = user;
  record.user_capacity = cap;
  record.arrangement = std::move(arrangement);
  record.feedback = std::move(feedback);
  Pcg64 rng(static_cast<std::uint64_t>(t) * 31 + user);
  for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
    std::vector<double> row(dim);
    for (double& x : row) x = UniformReal(rng, 0.0, 0.4);
    record.contexts.push_back(std::move(row));
  }
  return record;
}

TEST(InteractionRecordTest, ValidateRejectsMalformedRecords) {
  EXPECT_TRUE(
      ValidateInteractionRecord(Record(1, 0, 2, {0, 1}, {1, 0}, 3), 5, 3)
          .ok());
  // An empty arrangement is a valid round (nothing was arranged).
  EXPECT_TRUE(ValidateInteractionRecord(Record(2, 0, 2, {}, {}, 3), 5, 3)
                  .ok());
  // Misaligned feedback.
  EXPECT_FALSE(
      ValidateInteractionRecord(Record(2, 0, 2, {0, 1}, {1}, 3), 5, 3).ok());
  // Event id out of range.
  EXPECT_FALSE(
      ValidateInteractionRecord(Record(3, 0, 2, {9}, {1}, 3), 5, 3).ok());
  EXPECT_FALSE(
      ValidateInteractionRecord(Record(3, 0, 2, {5}, {1}, 3), 5, 3).ok());
  // Arrangement larger than user capacity.
  EXPECT_FALSE(
      ValidateInteractionRecord(Record(4, 0, 1, {0, 1}, {1, 0}, 3), 5, 3)
          .ok());
  // Bad feedback value.
  EXPECT_FALSE(
      ValidateInteractionRecord(Record(5, 0, 2, {0}, {2}, 3), 5, 3).ok());
  // Wrong context dimension, against the record and against the instance.
  InteractionRecord bad = Record(6, 0, 2, {0}, {1}, 3);
  bad.contexts[0].resize(2);
  EXPECT_FALSE(ValidateInteractionRecord(bad, 5, 3).ok());
  EXPECT_FALSE(
      ValidateInteractionRecord(Record(7, 0, 2, {0}, {1}, 3), 5, 4).ok());
}

TEST(InteractionRecordTest, FeedingRecordsRebuildsRidgeStateExactly) {
  const auto instance = ProblemInstance::Create(
      std::vector<std::int64_t>(6, 100), ConflictGraph(6), 4);
  ASSERT_TRUE(instance.ok());
  PolicyParams params;
  auto original = MakePolicy(PolicyKind::kUcb, &instance.value(), params, 1);
  auto replayed = MakePolicy(PolicyKind::kUcb, &instance.value(), params, 1);

  std::vector<InteractionRecord> records;
  PlatformState state(*instance);
  Pcg64 rng(9);
  for (std::int64_t t = 1; t <= 30; ++t) {
    RoundContext round;
    round.contexts = ContextMatrix(6, 4);
    for (std::size_t v = 0; v < 6; ++v) {
      for (std::size_t j = 0; j < 4; ++j) {
        round.contexts(v, j) = UniformReal(rng, 0.0, 0.45);
      }
    }
    round.user_capacity = 2;
    const Arrangement a = original->Propose(t, round, state);
    Feedback fb(a.size());
    for (auto& f : fb) f = Bernoulli(rng, 0.4) ? 1 : 0;
    original->Learn(t, round, a, fb);

    InteractionRecord record;
    record.t = t;
    record.user_capacity = 2;
    record.arrangement = a;
    record.feedback = fb;
    for (EventId v : a) {
      const auto row = round.contexts.Row(v);
      record.contexts.emplace_back(row.begin(), row.end());
    }
    ASSERT_TRUE(ValidateInteractionRecord(record, 6, 4).ok());
    records.push_back(std::move(record));
  }

  RoundContext scratch;
  scratch.contexts = ContextMatrix(6, 4);
  for (const InteractionRecord& record : records) {
    FeedInteractionRecord(record, 6, 4, replayed.get(), &scratch);
  }
  const auto* orig_base = dynamic_cast<LinearPolicyBase*>(original.get());
  const auto* repl_base = dynamic_cast<LinearPolicyBase*>(replayed.get());
  ASSERT_NE(orig_base, nullptr);
  ASSERT_NE(repl_base, nullptr);
  EXPECT_EQ(repl_base->ridge().num_observations(),
            orig_base->ridge().num_observations());
  EXPECT_EQ(repl_base->ridge().Y().MaxAbsDiff(orig_base->ridge().Y()), 0.0);
  EXPECT_EQ(MaxAbsDiff(repl_base->ridge().b(), orig_base->ridge().b()), 0.0);
}

TEST(InteractionRecordTest, CodecRoundTripsEveryField) {
  const std::vector<InteractionRecord> records = {
      Record(1, 7, 2, {0, 4}, {1, 0}, 3), Record(2, 8, 1, {2}, {1}, 3),
      Record(3, 9, 2, {}, {}, 3)};  // An empty arrangement too.
  for (const InteractionRecord& record : records) {
    const std::string encoded = EncodeInteractionRecord(record);
    auto decoded = DecodeInteractionRecord(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->t, record.t);
    EXPECT_EQ(decoded->user_id, record.user_id);
    EXPECT_EQ(decoded->user_capacity, record.user_capacity);
    EXPECT_EQ(decoded->arrangement, record.arrangement);
    EXPECT_EQ(decoded->feedback, record.feedback);
    EXPECT_EQ(decoded->contexts, record.contexts);  // Bit-exact doubles.
    EXPECT_EQ(EncodeInteractionRecord(*decoded), encoded);
  }
}

TEST(InteractionRecordTest, FuzzedPayloadNeverCrashesTheDecoder) {
  const std::string payload =
      EncodeInteractionRecord(Record(1, 0, 2, {0, 1}, {1, 0}, 3));
  Pcg64 rng(555);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = payload;
    const int mode = static_cast<int>(rng.NextBounded(3));
    if (mode == 0) {
      mutated.resize(rng.NextBounded(payload.size()));
    } else if (mode == 1) {
      const std::size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>(rng.NextBounded(256));
    } else {
      mutated.insert(rng.NextBounded(mutated.size()), "\xff\xff\xff");
    }
    // Either a structural kDataLoss or a record whose encoding is the
    // mutated payload itself — never a crash or a huge allocation.
    auto decoded = DecodeInteractionRecord(mutated);
    if (decoded.ok()) {
      EXPECT_EQ(EncodeInteractionRecord(*decoded), mutated);
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
}

}  // namespace
}  // namespace fasea
