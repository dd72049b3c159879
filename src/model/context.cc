#include "model/context.h"

#include <cmath>

#include "common/strings.h"

namespace fasea {

namespace {

constexpr double kMaxNormSq = 1.0 + 1e-9;  // ‖x‖² ≤ 1 plus float slack.

// Row v alone: its first non-finite value, else a norm past the bound,
// summing squares in sequential j-order.
Status ValidateRow(const Matrix& contexts, std::size_t v) {
  double norm_sq = 0.0;
  for (double x : contexts.Row(v)) {
    if (!std::isfinite(x)) {
      return InvalidArgumentError(StrFormat(
          "context of event %zu contains a non-finite value", v));
    }
    norm_sq += x * x;
  }
  if (norm_sq > kMaxNormSq) {
    return InvalidArgumentError(StrFormat(
        "context of event %zu has norm %.6f > 1", v, std::sqrt(norm_sq)));
  }
  return Status::Ok();
}

}  // namespace

Status ValidateRoundContext(const RoundContext& round, std::size_t num_events,
                            std::size_t dim) {
  if (round.contexts.rows() != num_events || round.contexts.cols() != dim) {
    return InvalidArgumentError(
        StrFormat("context matrix is %zux%zu, expected %zux%zu",
                  round.contexts.rows(), round.contexts.cols(), num_events,
                  dim));
  }
  if (round.user_capacity < 1) {
    return InvalidArgumentError(StrFormat(
        "user capacity must be >= 1, got %lld",
        static_cast<long long>(round.user_capacity)));
  }
  if (!round.available.empty() && round.available.size() != num_events) {
    return InvalidArgumentError(
        StrFormat("availability mask has %zu entries, expected %zu",
                  round.available.size(), num_events));
  }
  // Four rows at a time, each summing its squares in sequential j-order
  // with its own accumulator, so the adds of different rows overlap. A
  // row holding a NaN or ±∞ sums to NaN or +∞ and fails `≤` as an
  // over-long row does, so a group whose four sums pass is clean. A group
  // with any failing sum is rescanned row by row, which gives the serial
  // scan's verdict, event index and message.
  std::size_t v = 0;
  for (; v + 4 <= num_events; v += 4) {
    const double* rows = round.contexts.data() + v * dim;
    double norm_sq[4] = {};
    for (std::size_t j = 0; j < dim; ++j) {
      for (std::size_t r = 0; r < 4; ++r) {
        const double x = rows[r * dim + j];
        norm_sq[r] += x * x;
      }
    }
    if (norm_sq[0] <= kMaxNormSq && norm_sq[1] <= kMaxNormSq &&
        norm_sq[2] <= kMaxNormSq && norm_sq[3] <= kMaxNormSq) {
      continue;
    }
    for (std::size_t r = 0; r < 4; ++r) {
      if (Status st = ValidateRow(round.contexts, v + r); !st.ok()) {
        return st;
      }
    }
  }
  for (; v < num_events; ++v) {
    if (Status st = ValidateRow(round.contexts, v); !st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace fasea
