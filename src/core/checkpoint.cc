#include "core/checkpoint.h"

#include <cmath>

#include "common/bytes.h"
#include "common/strings.h"

namespace fasea {

namespace {

constexpr std::uint32_t kMagic = 0x46534541;  // "FSEA".
constexpr std::uint32_t kVersion = 2;  // 2 added the temperature τ.

constexpr const char* kTruncated = "checkpoint: truncated data";

}  // namespace

std::string SaveCheckpoint(PolicyKind kind, const PolicyParams& params,
                           const LinearPolicyBase& policy) {
  const RidgeState& ridge = policy.ridge();
  const std::size_t d = ridge.dim();

  std::string out;
  out.reserve(48 + (d * d + d) * 8);
  AppendU32(&out, kMagic);
  AppendU32(&out, kVersion);
  AppendU32(&out, static_cast<std::uint32_t>(kind));
  AppendU32(&out, 0);  // Reserved.
  AppendDouble(&out, params.lambda);
  AppendDouble(&out, params.alpha);
  AppendDouble(&out, params.delta);
  AppendDouble(&out, params.epsilon);
  AppendDouble(&out, params.temperature);
  AppendU64(&out, d);
  AppendU64(&out, static_cast<std::uint64_t>(ridge.num_observations()));
  const Matrix& y = ridge.Y();
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) AppendDouble(&out, y(i, j));
  }
  for (std::size_t i = 0; i < d; ++i) AppendDouble(&out, ridge.b()[i]);
  return out;
}

StatusOr<PolicyCheckpoint> ParseCheckpoint(std::string_view data) {
  ByteReader reader(data, kTruncated);
  auto magic = reader.ReadU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kMagic) {
    return InvalidArgumentError("checkpoint: bad magic");
  }
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kVersion) {
    return InvalidArgumentError(
        StrFormat("checkpoint: unsupported version %u", *version));
  }
  auto kind_raw = reader.ReadU32();
  if (!kind_raw.ok()) return kind_raw.status();
  if (*kind_raw > static_cast<std::uint32_t>(PolicyKind::kBoltzmann)) {
    return InvalidArgumentError("checkpoint: unknown policy kind");
  }
  auto reserved = reader.ReadU32();
  if (!reserved.ok()) return reserved.status();

  PolicyCheckpoint cp;
  cp.kind = static_cast<PolicyKind>(*kind_raw);
  // Every stored double must be finite: a flipped bit can smuggle in a
  // NaN/Inf that would silently poison Y (and every Cholesky behind it).
  const auto read_double = [&](double* out) -> Status {
    auto v = reader.ReadDouble();
    if (!v.ok()) return v.status();
    if (!std::isfinite(*v)) {
      return InvalidArgumentError("checkpoint: non-finite value");
    }
    *out = *v;
    return Status::Ok();
  };
  if (Status st = read_double(&cp.params.lambda); !st.ok()) return st;
  if (Status st = read_double(&cp.params.alpha); !st.ok()) return st;
  if (Status st = read_double(&cp.params.delta); !st.ok()) return st;
  if (Status st = read_double(&cp.params.epsilon); !st.ok()) return st;
  if (Status st = read_double(&cp.params.temperature); !st.ok()) return st;
  // Mirror the policy constructors' preconditions: a corrupted parameter
  // must surface as a Status here, not as an abort inside MakePolicy.
  if (cp.params.lambda <= 0.0) {
    return InvalidArgumentError("checkpoint: lambda must be positive");
  }
  if (cp.params.alpha < 0.0) {
    return InvalidArgumentError("checkpoint: alpha must be non-negative");
  }
  if (cp.params.delta <= 0.0 || cp.params.delta >= 1.0) {
    return InvalidArgumentError("checkpoint: delta must be in (0, 1)");
  }
  if (cp.params.epsilon < 0.0 || cp.params.epsilon > 1.0) {
    return InvalidArgumentError("checkpoint: epsilon must be in [0, 1]");
  }
  if (cp.params.temperature <= 0.0) {
    return InvalidArgumentError("checkpoint: temperature must be positive");
  }

  auto dim = reader.ReadU64();
  if (!dim.ok()) return dim.status();
  if (*dim == 0 || *dim > (1u << 20)) {
    return InvalidArgumentError("checkpoint: implausible dimension");
  }
  auto num_obs = reader.ReadU64();
  if (!num_obs.ok()) return num_obs.status();
  if (*num_obs > (1ull << 62)) {
    return InvalidArgumentError("checkpoint: implausible observation count");
  }
  cp.num_observations = static_cast<std::int64_t>(*num_obs);

  const std::size_t d = static_cast<std::size_t>(*dim);
  // Match the payload size before allocating d×d doubles: a flipped bit
  // in `dim` must not trigger a gigabyte allocation or mis-sliced reads.
  if (reader.remaining() != (d * d + d) * 8) {
    return InvalidArgumentError(reader.remaining() < (d * d + d) * 8
                                    ? kTruncated
                                    : "checkpoint: trailing bytes");
  }
  cp.y = Matrix(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      if (Status st = read_double(&cp.y(i, j)); !st.ok()) return st;
    }
  }
  cp.b = Vector(d);
  for (std::size_t i = 0; i < d; ++i) {
    if (Status st = read_double(&cp.b[i]); !st.ok()) return st;
  }
  FASEA_CHECK(reader.AtEnd());
  return cp;
}

StatusOr<std::unique_ptr<Policy>> RestorePolicy(
    const PolicyCheckpoint& checkpoint, const ProblemInstance* instance,
    std::uint64_t seed) {
  FASEA_CHECK(instance != nullptr);
  if (checkpoint.kind == PolicyKind::kRandom) {
    return InvalidArgumentError(
        "checkpoint: Random has no learning state to restore");
  }
  if (checkpoint.y.rows() != instance->dim()) {
    return InvalidArgumentError(StrFormat(
        "checkpoint dimension %zu does not match instance dimension %zu",
        checkpoint.y.rows(), instance->dim()));
  }
  std::unique_ptr<Policy> policy =
      MakePolicy(checkpoint.kind, instance, checkpoint.params, seed);
  auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
  FASEA_CHECK(base != nullptr);
  // The restored state keeps a Cholesky factor iff the fresh policy's
  // learner does (TS alone): a restore never changes what a policy learns.
  auto ridge = RidgeState::FromComponents(
      checkpoint.params.lambda, checkpoint.y, checkpoint.b,
      checkpoint.num_observations, kDefaultRefactorEvery,
      base->learner().keeps_factor());
  if (!ridge.ok()) return ridge.status();
  base->RestoreRidge(std::move(ridge).value());
  return policy;
}

}  // namespace fasea
