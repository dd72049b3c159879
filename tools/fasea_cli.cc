// fasea_cli: run any FASEA experiment from the command line.
//
//   fasea_cli --help
//   fasea_cli --mode=synthetic --num_events=200 --horizon=20000
//   fasea_cli --mode=real --user=3 --user_capacity=full --horizon=1000
//   fasea_cli --policies=ucb,exploit --csv_prefix=/tmp/run1
//
// Crash-recovery inspection (prints the RecoveryReport a full recovery
// would produce: frames scanned, torn-tail bytes truncated, corrupt
// frames, checkpoint boundary classification):
//
//   fasea_cli recover --wal_dir=/var/lib/fasea/wal
//   fasea_cli recover --wal_dir=... --checkpoint=policy.ckpt --skip_corrupt
//
// Observability smoke run (drives a synthetic serving workload through
// ArrangementService with a WAL attached, then dumps the process metrics
// registry; tools/check.sh --metrics-smoke builds on this):
//
//   fasea_cli stats                       # JSON on stdout
//   fasea_cli stats --format=prom         # Prometheus-style text
//   fasea_cli stats --rounds=1000 --trace_rounds=3   # + stage trace on stderr
//
// Deterministic chaos run (drives the kill-and-recover harness of
// ebsn/chaos_harness.h under a named or inline fault schedule and prints
// the invariant verdict plus fault/breaker counts; nonzero exit on any
// violation):
//
//   fasea_cli chaos --list
//   fasea_cli chaos --schedule=dying-disk --threads=2 --cycles=3
//   fasea_cli chaos --schedule='append_error_rate=0.1' --seed=5
//
// Sharded chaos (per-shard WALs + the two-phase cross-shard protocol;
// see ebsn/sharded_service.h). --shards > 0 selects the sharded
// harness; --kill_mode picks which crash drill each cycle runs:
//
//   fasea_cli chaos --shards=4 --kill_mode=one-shard --schedule=torn-tail
//   fasea_cli chaos --shards=4 --kill_mode=coordinator-mid-commit
//   fasea_cli chaos --shards=4 --kill_mode=partition \
//       --net_schedule='drop_rate=0.15;dup_rate=0.1;reorder_rate=0.1'
//   fasea_cli chaos --shards=3 --kill_mode=rebalance --schedule=clean
//
// Machine-readable health probe (drives a short workload, dumps the
// HealthSnapshot as JSON, and exits with the health state itself:
// 0 healthy, 1 degraded, 2 lame-duck; 3 on usage/runtime errors):
//
//   fasea_cli health
//   fasea_cli health --shards=4 --rounds=200; echo "state=$?"
//
// Counterfactual replay (off-policy A/B over a recorded decision log —
// no live traffic; see obs/offline_eval.h). `stats --decision_log`
// records; `replay` reads the paired decision log + feedback WAL,
// regenerates the logged workload from the header, and scores each
// candidate with IPS / SNIPS / DR plus confidence intervals:
//
//   fasea_cli stats --decision_log --policy=boltzmann --wal_dir=/tmp/run
//   fasea_cli replay --log=/tmp/run --policy=ucb,boltzmann
//   fasea_cli replay --log=/tmp/run --self_check   # IPS == observed mean
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/cpu_features.h"
#include "common/flags.h"
#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/chaos_harness.h"
#include "ebsn/recovery_manager.h"
#include "ebsn/shard_wal.h"
#include "ebsn/sharded_service.h"
#include "io/env.h"
#include "io/wal.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/offline_eval.h"
#include "obs/trace.h"
#include "rng/pcg64.h"
#include "sim/cli.h"

namespace {

int RecoverMain(int argc, char** argv) {
  fasea::FlagSet flags;
  flags.DefineString("wal_dir", "",
                     "Directory holding the WAL segment files (required).");
  flags.DefineString("checkpoint", "",
                     "Optional policy checkpoint blob to recover against.");
  flags.DefineBool("skip_corrupt", false,
                   "Skip-and-count corrupt mid-file frames instead of "
                   "failing with DATA_LOSS.");
  flags.DefineBool("help", false, "Show this help.");
  if (fasea::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "fasea_cli recover: %s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("help") || flags.GetString("wal_dir").empty()) {
    std::fputs(flags.HelpText("fasea_cli recover").c_str(),
               flags.GetBool("help") ? stdout : stderr);
    return flags.GetBool("help") ? 0 : 2;
  }

  fasea::Env* env = fasea::Env::Default();
  std::string checkpoint_blob;
  const std::string& checkpoint_path = flags.GetString("checkpoint");
  if (!checkpoint_path.empty()) {
    auto blob = env->ReadFileToString(checkpoint_path);
    if (!blob.ok()) {
      std::fprintf(stderr, "fasea_cli recover: %s\n",
                   blob.status().ToString().c_str());
      return 1;
    }
    checkpoint_blob = std::move(blob).value();
  }

  const auto policy = flags.GetBool("skip_corrupt")
                          ? fasea::CorruptFramePolicy::kSkip
                          : fasea::CorruptFramePolicy::kFail;
  auto report = fasea::InspectWal(env, flags.GetString("wal_dir"),
                                  checkpoint_blob, policy);
  if (!report.ok()) {
    std::fprintf(stderr, "recovery would fail: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->ToString().c_str(), stdout);
  return 0;
}

// One HealthSnapshot as a JSON object. `label` names the sub-service
// ("service" for the unsharded probe, "shard-N" otherwise).
std::string HealthJson(const std::string& label,
                       const fasea::HealthSnapshot& health) {
  const std::string state_name(fasea::HealthStateName(health.state));
  const std::string breaker_name(
      health.breaker_enabled
          ? fasea::CircuitBreaker::StateName(health.breaker)
          : std::string_view("off"));
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"name\":\"%s\",\"state\":\"%s\",\"state_code\":%d,"
      "\"wal_attached\":%s,\"wal_degraded\":%s,\"learner_healthy\":%s,"
      "\"breaker\":\"%s\",\"rounds_served\":%lld,\"rounds_shed\":%lld,"
      "\"deadline_exceeded\":%lld,\"nondurable_rounds\":%lld,"
      "\"wal_reopens\":%lld,\"stateless_fallbacks\":%lld}",
      label.c_str(), state_name.c_str(), static_cast<int>(health.state),
      health.wal_attached ? "true" : "false",
      health.wal_degraded ? "true" : "false",
      health.learner_healthy ? "true" : "false", breaker_name.c_str(),
      static_cast<long long>(health.rounds_served),
      static_cast<long long>(health.rounds_shed),
      static_cast<long long>(health.deadline_exceeded),
      static_cast<long long>(health.nondurable_rounds),
      static_cast<long long>(health.wal_reopens),
      static_cast<long long>(health.stateless_fallbacks));
  return buffer;
}

void DeleteDirFiles(fasea::Env* env, const std::string& dir) {
  if (auto entries = env->ListDir(dir); entries.ok()) {
    for (const std::string& file : *entries) {
      (void)env->DeleteFile(fasea::JoinPath(dir, file));
    }
  }
}

std::string FreshScratchWalDir(fasea::Env* env, const std::string& name,
                               int shards) {
  const std::string dir = "/tmp/" + name + "." + std::to_string(::getpid());
  (void)env->CreateDir(dir);
  for (int s = 0; s < shards; ++s) {
    DeleteDirFiles(env, shards > 1 ? fasea::ShardWalDirName(dir, s) : dir);
  }
  return dir;
}

int StatsMain(int argc, char** argv) {
  fasea::FlagSet flags;
  flags.DefineInt("rounds", 1000, "Serve/feedback rounds to drive.");
  flags.DefineInt("num_events", 100, "|V| of the synthetic workload.");
  flags.DefineInt("dim", 10, "Context dimension d.");
  flags.DefineString("policy", "ucb",
                     "Serving policy: ucb|ts|egreedy|exploit|random|"
                     "boltzmann.");
  flags.DefineInt("seed", 7, "Workload + policy seed.");
  flags.DefineString("wal_dir", "",
                     "WAL directory; empty uses a scratch directory under "
                     "/tmp whose old segments are deleted first.");
  flags.DefineInt("sync_every", 8,
                  "fsync every N appends (1 = after every record).");
  flags.DefineString("format", "json", "Output format: json | prom.");
  flags.DefineInt("trace_rounds", 0,
                  "Dump the per-stage trace of the last N rounds to stderr "
                  "(0 = off).");
  flags.DefineInt("shards", 1,
                  "1 drives a single ArrangementService; N>1 drives a "
                  "ShardedArrangementService with per-shard WALs and also "
                  "reports per-shard health plus the aggregate.");
  flags.DefineBool("decision_log", false,
                   "Record a decision log beside the feedback WAL "
                   "(<wal_dir>-decisions; per shard when sharded). Any "
                   "previous decision log there is replaced. Replay it "
                   "with `fasea_cli replay --log=<wal_dir>`.");
  flags.DefineBool("trace_txns", false,
                   "Dump the cross-shard transaction timelines retained "
                   "in the trace ring to stderr.");
  flags.DefineBool("help", false, "Show this help.");
  if (fasea::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "fasea_cli stats: %s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.HelpText("fasea_cli stats").c_str(), stdout);
    return 0;
  }
  const std::string format = flags.GetString("format");
  if (format != "json" && format != "prom") {
    std::fprintf(stderr, "fasea_cli stats: unknown --format '%s' (json|prom)\n",
                 format.c_str());
    return 2;
  }

  fasea::SyntheticConfig config;
  config.num_events = static_cast<std::size_t>(flags.GetInt("num_events"));
  config.dim = static_cast<std::size_t>(flags.GetInt("dim"));
  config.horizon = flags.GetInt("rounds");
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  if (fasea::Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "fasea_cli stats: %s\n", st.ToString().c_str());
    return 2;
  }
  auto world = fasea::SyntheticWorld::Create(config);
  if (!world.ok()) {
    std::fprintf(stderr, "fasea_cli stats: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  auto kinds = fasea::ParsePolicyList(flags.GetString("policy"));
  if (!kinds.ok()) {
    std::fprintf(stderr, "fasea_cli stats: %s\n",
                 kinds.status().ToString().c_str());
    return 2;
  }
  const int shards = static_cast<int>(flags.GetInt("shards"));
  if (shards < 1) {
    std::fprintf(stderr, "fasea_cli stats: --shards must be >= 1\n");
    return 2;
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  const bool record_decisions = flags.GetBool("decision_log");

  fasea::Env* env = fasea::Env::Default();
  std::string wal_dir = flags.GetString("wal_dir");
  if (wal_dir.empty()) {
    wal_dir = "/tmp/fasea_stats_wal";
    (void)env->CreateDir(wal_dir);
    for (int s = 0; s < shards; ++s) {
      DeleteDirFiles(env, shards > 1 ? fasea::ShardWalDirName(wal_dir, s)
                                     : wal_dir);
    }
  }
  fasea::WalOptions wal_options;
  const std::int64_t sync_every = flags.GetInt("sync_every");
  wal_options.sync_mode = sync_every <= 1 ? fasea::WalSyncMode::kEveryRecord
                                          : fasea::WalSyncMode::kEveryN;
  wal_options.sync_every_n = sync_every;

  // A recording run always starts a fresh decision log: replay expects one
  // header frame and one run's records in the directory, so any previous
  // log there is deleted first (the feedback WAL keeps normal append
  // semantics — record into a fresh --wal_dir for replayable runs).
  fasea::DecisionLogHeader header;
  if (record_decisions) {
    header.num_events = config.num_events;
    header.dim = config.dim;
    header.horizon = config.horizon;
    header.workload_seed = config.seed;
    header.policy_id = std::string(fasea::PolicyKindName(kinds->front()));
    header.policy_seed = seed;  // Table 4 params keep their defaults.
    for (int s = 0; s < shards; ++s) {
      DeleteDirFiles(env, fasea::DecisionLogDirName(
                              shards > 1 ? fasea::ShardWalDirName(wal_dir, s)
                                         : wal_dir));
    }
  }

  fasea::Pcg64 feedback_rng(seed, /*stream=*/99);
  const std::int64_t rounds = flags.GetInt("rounds");

  if (shards == 1) {
    fasea::ArrangementService service(&(*world)->instance(), kinds->front(),
                                      fasea::PolicyParams{}, seed);
    auto wal = fasea::WalWriter::Open(env, wal_dir, wal_options);
    if (!wal.ok()) {
      std::fprintf(stderr, "fasea_cli stats: %s\n",
                   wal.status().ToString().c_str());
      return 1;
    }
    service.AttachWal(std::move(wal).value());
    if (record_decisions) {
      auto dlog = fasea::DecisionLogWriter::Open(
          env, fasea::DecisionLogDirName(wal_dir), header, wal_options);
      if (!dlog.ok()) {
        std::fprintf(stderr, "fasea_cli stats: %s\n",
                     dlog.status().ToString().c_str());
        return 1;
      }
      service.AttachDecisionLog(std::move(dlog).value());
    }

    for (std::int64_t t = 1; t <= rounds; ++t) {
      const fasea::RoundContext& round = (*world)->provider().NextRound(t);
      auto arrangement = service.ServeUser(round.user_id, round.user_capacity,
                                           round.contexts);
      if (!arrangement.ok()) {
        std::fprintf(stderr, "fasea_cli stats: round %lld: %s\n",
                     static_cast<long long>(t),
                     arrangement.status().ToString().c_str());
        return 1;
      }
      const fasea::Feedback feedback = (*world)->feedback().Sample(
          t, round.contexts, *arrangement, feedback_rng);
      if (fasea::Status st = service.SubmitFeedback(feedback); !st.ok()) {
        std::fprintf(stderr, "fasea_cli stats: round %lld: %s\n",
                     static_cast<long long>(t), st.ToString().c_str());
        return 1;
      }
    }
    if (fasea::DecisionLogWriter* dlog = service.mutable_decision_log()) {
      (void)dlog->Close();  // End-of-run flush for the replay reader.
    }

    // Operator-facing health line (the runbook in README.md reads these
    // fields; the same data is in the registry dump as
    // fasea.service.health_state / .shed / .deadline_exceeded / ...).
    const fasea::HealthSnapshot health = service.Health();
    const std::string state_name(fasea::HealthStateName(health.state));
    const std::string breaker_name(
        health.breaker_enabled
            ? fasea::CircuitBreaker::StateName(health.breaker)
            : std::string_view("off"));
    std::fprintf(stderr,
                 "health: state=%s wal_attached=%d wal_degraded=%d "
                 "learner_healthy=%d breaker=%s served=%lld shed=%lld "
                 "deadline_exceeded=%lld nondurable=%lld wal_reopens=%lld "
                 "stateless_fallbacks=%lld\n",
                 state_name.c_str(),
                 health.wal_attached ? 1 : 0, health.wal_degraded ? 1 : 0,
                 health.learner_healthy ? 1 : 0, breaker_name.c_str(),
                 static_cast<long long>(health.rounds_served),
                 static_cast<long long>(health.rounds_shed),
                 static_cast<long long>(health.deadline_exceeded),
                 static_cast<long long>(health.nondurable_rounds),
                 static_cast<long long>(health.wal_reopens),
                 static_cast<long long>(health.stateless_fallbacks));
  } else {
    fasea::ShardedOptions options;
    options.num_shards = shards;
    options.kind = kinds->front();
    options.seed = seed;
    fasea::ShardedArrangementService service(&(*world)->instance(), options);
    if (fasea::Status st = service.AttachWals(env, wal_dir, wal_options);
        !st.ok()) {
      std::fprintf(stderr, "fasea_cli stats: %s\n", st.ToString().c_str());
      return 1;
    }
    if (record_decisions) {
      if (fasea::Status st =
              service.AttachDecisionLogs(env, wal_dir, header, wal_options);
          !st.ok()) {
        std::fprintf(stderr, "fasea_cli stats: %s\n", st.ToString().c_str());
        return 1;
      }
    }

    for (std::int64_t t = 1; t <= rounds; ++t) {
      const fasea::RoundContext& round = (*world)->provider().NextRound(t);
      auto served = service.ServeUser(round.user_id, round.user_capacity,
                                      round.contexts);
      if (!served.ok()) {
        std::fprintf(stderr, "fasea_cli stats: round %lld: %s\n",
                     static_cast<long long>(t),
                     served.status().ToString().c_str());
        return 1;
      }
      const fasea::Feedback feedback = (*world)->feedback().Sample(
          t, round.contexts, served->arrangement, feedback_rng);
      if (fasea::Status st = service.SubmitFeedback(served->txn, feedback);
          !st.ok()) {
        std::fprintf(stderr, "fasea_cli stats: round %lld: %s\n",
                     static_cast<long long>(t), st.ToString().c_str());
        return 1;
      }
    }
    (void)service.CloseDecisionLogs();

    // Per-shard health plus the aggregate on stderr; the registry dump
    // below carries the fasea.shard.* protocol counters.
    const fasea::HealthState aggregate = service.AggregateHealth();
    std::fprintf(stderr, "health: aggregate=%s\n",
                 std::string(fasea::HealthStateName(aggregate)).c_str());
    for (int s = 0; s < shards; ++s) {
      std::fprintf(stderr, "health: %s\n",
                   HealthJson("shard-" + std::to_string(s),
                              service.ShardHealth(s))
                       .c_str());
    }
  }

  // The SIMD tier the scoring and learner kernels ran at (stdout stays
  // the metrics dump).
  std::fprintf(stderr, "kernels: %s tier\n",
               std::string(fasea::SimdTierName(fasea::HostSimdTier()))
                   .c_str());
  if (format == "json") {
    std::printf("%s\n", fasea::Metrics()->ToJson().c_str());
  } else {
    std::fputs(fasea::Metrics()->ToPrometheusText().c_str(), stdout);
  }
  const std::int64_t trace_rounds = flags.GetInt("trace_rounds");
  if (trace_rounds > 0) {
    std::fputs(fasea::TraceRing::Global()
                   ->DumpText(static_cast<std::size_t>(trace_rounds))
                   .c_str(),
               stderr);
  }
  if (flags.GetBool("trace_txns")) {
    std::fputs(fasea::TraceRing::Global()->DumpTransactionTimeline().c_str(),
               stderr);
  }
  return 0;
}

// Reverse of PolicyKindName — rebuilds the behavior policy's kind from
// the decision-log header's policy_id.
fasea::StatusOr<fasea::PolicyKind> PolicyKindFromName(std::string_view name) {
  constexpr fasea::PolicyKind kAll[] = {
      fasea::PolicyKind::kUcb,       fasea::PolicyKind::kTs,
      fasea::PolicyKind::kEpsGreedy, fasea::PolicyKind::kExploit,
      fasea::PolicyKind::kRandom,    fasea::PolicyKind::kBoltzmann};
  for (fasea::PolicyKind kind : kAll) {
    if (fasea::PolicyKindName(kind) == name) return kind;
  }
  return fasea::InvalidArgumentError("unknown behavior policy id: " +
                                     std::string(name));
}

// `fasea_cli replay`: counterfactual A/B over a recorded decision log —
// score candidate policies on logged traffic with IPS/SNIPS/DR instead
// of serving them live (see obs/offline_eval.h for the estimators).
int ReplayMain(int argc, char** argv) {
  fasea::FlagSet flags;
  flags.DefineString("log", "",
                     "The recording run's feedback WAL directory "
                     "(required); decisions are read from the "
                     "`<log>-decisions` directory beside it.");
  flags.DefineString("policy", "",
                     "Candidate policies to score, csv of "
                     "ucb|ts|egreedy|exploit|random|boltzmann "
                     "(default: the recorded behavior policy).");
  flags.DefineDouble("floor", 1e-6,
                     "Propensity floor: both sides of every importance "
                     "ratio clip up to this.");
  flags.DefineBool("frozen", false,
                   "Evaluate a frozen candidate instead of letting it "
                   "learn progressively from the logged outcomes.");
  flags.DefineBool("self_check", false,
                   "Also evaluate the behavior policy as its own "
                   "candidate and fail unless IPS reproduces the observed "
                   "mean reward (exit 1 on mismatch).");
  flags.DefineBool("help", false, "Show this help.");
  if (fasea::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "fasea_cli replay: %s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("help") || flags.GetString("log").empty()) {
    std::fputs(flags.HelpText("fasea_cli replay").c_str(),
               flags.GetBool("help") ? stdout : stderr);
    return flags.GetBool("help") ? 0 : 2;
  }
  const std::string& log_dir = flags.GetString("log");

  fasea::Env* env = fasea::Env::Default();
  auto scan = fasea::ReadDecisionLog(env, fasea::DecisionLogDirName(log_dir));
  if (!scan.ok()) {
    std::fprintf(stderr, "fasea_cli replay: %s\n",
                 scan.status().ToString().c_str());
    return 1;
  }
  if (!scan->has_header) {
    std::fprintf(stderr,
                 "fasea_cli replay: %s holds no decision-log header — was "
                 "the run recorded with `stats --decision_log`?\n",
                 fasea::DecisionLogDirName(log_dir).c_str());
    return 1;
  }
  const fasea::DecisionLogHeader header = scan->header;
  const std::int64_t num_decisions =
      static_cast<std::int64_t>(scan->records.size());
  const std::int64_t decision_bytes_truncated = scan->bytes_truncated;
  const std::int64_t decision_duplicates = scan->duplicates_collapsed;

  // Outcomes: the feedback WAL beside the log, rewind-collapsed exactly
  // like recovery (a record whose round does not advance supersedes the
  // earlier attempt — crash rewinds and persisted retries).
  auto wal_scan =
      fasea::ScanWal(env, log_dir, fasea::CorruptFramePolicy::kFail);
  if (!wal_scan.ok()) {
    std::fprintf(stderr, "fasea_cli replay: %s\n",
                 wal_scan.status().ToString().c_str());
    return 1;
  }
  std::vector<fasea::InteractionRecord> outcomes;
  outcomes.reserve(wal_scan->payloads.size());
  for (const std::string& payload : wal_scan->payloads) {
    auto record = fasea::DecodeInteractionRecord(payload);
    if (!record.ok()) {
      if (fasea::DecodeShardFrame(payload).ok()) {
        std::fprintf(stderr,
                     "fasea_cli replay: %s is a sharded WAL (typed "
                     "DECISION/RESERVE/PORTION frames); counterfactual "
                     "replay reads unsharded feedback WALs — record with "
                     "`stats --decision_log` at --shards=1\n",
                     log_dir.c_str());
        return 1;
      }
      std::fprintf(stderr, "fasea_cli replay: %s\n",
                   record.status().ToString().c_str());
      return 1;
    }
    while (!outcomes.empty() && outcomes.back().t >= record->t) {
      outcomes.pop_back();
    }
    outcomes.push_back(std::move(record).value());
  }

  // The header carries the full workload recipe; regenerate the logged
  // traffic and verify it per round via the context hash.
  fasea::SyntheticConfig config;
  config.num_events = static_cast<std::size_t>(header.num_events);
  config.dim = static_cast<std::size_t>(header.dim);
  config.horizon = header.horizon;
  config.seed = header.workload_seed;
  if (fasea::Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "fasea_cli replay: bad log header: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  auto world = fasea::SyntheticWorld::Create(config);
  if (!world.ok()) {
    std::fprintf(stderr, "fasea_cli replay: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  // NextRound hands out a reference that dies on the next call and the
  // provider is sequential — precompute the whole horizon once, by copy.
  auto rounds = std::make_shared<std::vector<fasea::RoundContext>>();
  rounds->reserve(static_cast<std::size_t>(header.horizon));
  for (std::int64_t t = 1; t <= header.horizon; ++t) {
    rounds->push_back((*world)->provider().NextRound(t));
  }
  fasea::RoundRegenerator regenerate =
      [rounds](std::int64_t t) -> fasea::RoundContext {
    if (t < 1 || t > static_cast<std::int64_t>(rounds->size())) {
      return fasea::RoundContext{};  // Hash mismatch ⇒ counted + skipped.
    }
    return (*rounds)[static_cast<std::size_t>(t - 1)];
  };

  fasea::OfflineEvaluator evaluator(&(*world)->instance(), std::move(*scan),
                                    std::move(outcomes), regenerate);

  auto behavior_kind = PolicyKindFromName(header.policy_id);
  std::vector<fasea::PolicyKind> kinds;
  if (!flags.GetString("policy").empty()) {
    auto parsed = fasea::ParsePolicyList(flags.GetString("policy"));
    if (!parsed.ok()) {
      std::fprintf(stderr, "fasea_cli replay: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    kinds = std::move(parsed).value();
  }
  const bool self_check = flags.GetBool("self_check");
  if (kinds.empty() ||
      (self_check && behavior_kind.ok() &&
       std::find(kinds.begin(), kinds.end(), *behavior_kind) ==
           kinds.end())) {
    if (!behavior_kind.ok()) {
      std::fprintf(stderr, "fasea_cli replay: %s\n",
                   behavior_kind.status().ToString().c_str());
      return 1;
    }
    kinds.push_back(*behavior_kind);
  }

  fasea::PolicyParams params;
  params.lambda = header.lambda;
  params.alpha = header.alpha;
  params.delta = header.delta;
  params.epsilon = header.epsilon;
  params.temperature = header.temperature;

  fasea::OfflineEvalOptions options;
  options.propensity_floor = flags.GetDouble("floor");
  options.learn_from_log = !flags.GetBool("frozen");

  std::printf("replay: log=%s behavior=%s horizon=%lld decisions=%lld "
              "matched=%lld truncated_bytes=%lld duplicates=%lld "
              "floor=%g mode=%s\n",
              log_dir.c_str(), header.policy_id.c_str(),
              static_cast<long long>(header.horizon),
              static_cast<long long>(num_decisions),
              static_cast<long long>(evaluator.num_matched()),
              static_cast<long long>(decision_bytes_truncated),
              static_cast<long long>(decision_duplicates),
              options.propensity_floor,
              options.learn_from_log ? "progressive" : "frozen");

  int exit_code = 0;
  for (fasea::PolicyKind kind : kinds) {
    auto candidate = fasea::MakePolicy(kind, &(*world)->instance(), params,
                                       header.policy_seed);
    const fasea::OfflineEvalResult res =
        evaluator.Evaluate(candidate.get(), options);
    std::printf(
        "candidate=%s examples=%lld observed_mean=%.6f "
        "ips=%.6f [%.6f,%.6f] snips=%.6f [%.6f,%.6f] "
        "dr=%.6f [%.6f,%.6f] ess=%.1f mean_weight=%.4f clipped=%lld "
        "no_outcome=%lld pairing_mismatch=%lld context_mismatch=%lld "
        "theta_drift=%lld\n",
        res.candidate_id.c_str(), static_cast<long long>(res.examples),
        res.observed_mean_reward, res.ips.mean, res.ips.ci_low,
        res.ips.ci_high, res.snips.mean, res.snips.ci_low, res.snips.ci_high,
        res.dr.mean, res.dr.ci_low, res.dr.ci_high,
        res.effective_sample_size, res.mean_weight,
        static_cast<long long>(res.clipped_propensities),
        static_cast<long long>(res.skipped_no_outcome),
        static_cast<long long>(res.skipped_pairing_mismatch),
        static_cast<long long>(res.skipped_context_mismatch),
        static_cast<long long>(res.theta_version_mismatches));
    if (self_check && behavior_kind.ok() && kind == *behavior_kind) {
      const double gap = std::fabs(res.ips.mean - res.observed_mean_reward);
      const bool pass = res.examples > 0 && gap <= 1e-6 &&
                        res.skipped_context_mismatch == 0;
      std::printf("self_check: %s (|ips - observed| = %.3g over %lld "
                  "examples)\n",
                  pass ? "PASS" : "FAIL", gap,
                  static_cast<long long>(res.examples));
      if (!pass) exit_code = 1;
    }
  }
  return exit_code;
}

// `fasea_cli health`: drive a short synthetic workload (unsharded, or
// across N WAL-backed shards) and report the resulting HealthSnapshot
// as JSON. The exit code IS the health verdict — 0 healthy, 1
// degraded, 2 lame-duck — so probes can consume it without parsing;
// usage and runtime errors exit 3 to stay distinguishable.
int HealthMain(int argc, char** argv) {
  fasea::FlagSet flags;
  flags.DefineInt("rounds", 200, "Serve/feedback rounds to drive.");
  flags.DefineInt("num_events", 64, "|V| of the synthetic workload.");
  flags.DefineInt("dim", 8, "Context dimension d.");
  flags.DefineInt("seed", 7, "Workload + policy seed.");
  flags.DefineInt("shards", 1,
                  "1 probes a single ArrangementService; N>1 probes a "
                  "ShardedArrangementService with per-shard WALs and "
                  "reports every shard plus the aggregate.");
  flags.DefineString("wal_dir", "",
                     "WAL directory (default: a fresh scratch dir under "
                     "/tmp; old segments are deleted first).");
  flags.DefineBool("help", false, "Show this help.");
  if (fasea::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "fasea_cli health: %s\n", st.ToString().c_str());
    return 3;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.HelpText("fasea_cli health").c_str(), stdout);
    return 0;
  }
  const int shards = static_cast<int>(flags.GetInt("shards"));
  if (shards < 1) {
    std::fprintf(stderr, "fasea_cli health: --shards must be >= 1\n");
    return 3;
  }

  fasea::SyntheticConfig config;
  config.num_events = static_cast<std::size_t>(flags.GetInt("num_events"));
  config.dim = static_cast<std::size_t>(flags.GetInt("dim"));
  config.horizon = flags.GetInt("rounds");
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  if (fasea::Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "fasea_cli health: %s\n", st.ToString().c_str());
    return 3;
  }
  auto world = fasea::SyntheticWorld::Create(config);
  if (!world.ok()) {
    std::fprintf(stderr, "fasea_cli health: %s\n",
                 world.status().ToString().c_str());
    return 3;
  }

  fasea::Env* env = fasea::Env::Default();
  std::string wal_dir = flags.GetString("wal_dir");
  if (wal_dir.empty()) {
    wal_dir = FreshScratchWalDir(env, "fasea_health_wal", shards);
  }
  const std::int64_t rounds = flags.GetInt("rounds");
  fasea::Pcg64 feedback_rng(static_cast<std::uint64_t>(flags.GetInt("seed")),
                            /*stream=*/99);

  if (shards == 1) {
    fasea::ArrangementService service(
        &(*world)->instance(), fasea::PolicyKind::kUcb, fasea::PolicyParams{},
        static_cast<std::uint64_t>(flags.GetInt("seed")));
    auto wal = fasea::WalWriter::Open(env, wal_dir, fasea::WalOptions{});
    if (!wal.ok()) {
      std::fprintf(stderr, "fasea_cli health: %s\n",
                   wal.status().ToString().c_str());
      return 3;
    }
    service.AttachWal(std::move(wal).value());
    for (std::int64_t t = 1; t <= rounds; ++t) {
      const fasea::RoundContext& round = (*world)->provider().NextRound(t);
      auto arrangement = service.ServeUser(round.user_id, round.user_capacity,
                                           round.contexts);
      if (!arrangement.ok()) {
        std::fprintf(stderr, "fasea_cli health: round %lld: %s\n",
                     static_cast<long long>(t),
                     arrangement.status().ToString().c_str());
        return 3;
      }
      const fasea::Feedback feedback = (*world)->feedback().Sample(
          t, round.contexts, *arrangement, feedback_rng);
      if (fasea::Status st = service.SubmitFeedback(feedback); !st.ok()) {
        std::fprintf(stderr, "fasea_cli health: round %lld: %s\n",
                     static_cast<long long>(t), st.ToString().c_str());
        return 3;
      }
    }
    const fasea::HealthSnapshot health = service.Health();
    std::printf("%s\n", HealthJson("service", health).c_str());
    return static_cast<int>(health.state);
  }

  fasea::ShardedOptions options;
  options.num_shards = shards;
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  fasea::ShardedArrangementService service(&(*world)->instance(), options);
  if (fasea::Status st = service.AttachWals(env, wal_dir); !st.ok()) {
    std::fprintf(stderr, "fasea_cli health: %s\n", st.ToString().c_str());
    return 3;
  }
  for (std::int64_t t = 1; t <= rounds; ++t) {
    const fasea::RoundContext& round = (*world)->provider().NextRound(t);
    auto served = service.ServeUser(round.user_id, round.user_capacity,
                                    round.contexts);
    if (!served.ok()) {
      std::fprintf(stderr, "fasea_cli health: round %lld: %s\n",
                   static_cast<long long>(t),
                   served.status().ToString().c_str());
      return 3;
    }
    const fasea::Feedback feedback = (*world)->feedback().Sample(
        t, round.contexts, served->arrangement, feedback_rng);
    if (fasea::Status st = service.SubmitFeedback(served->txn, feedback);
        !st.ok()) {
      std::fprintf(stderr, "fasea_cli health: round %lld: %s\n",
                   static_cast<long long>(t), st.ToString().c_str());
      return 3;
    }
  }
  const fasea::HealthState aggregate = service.AggregateHealth();
  std::printf("{\"aggregate\":\"%s\",\"aggregate_code\":%d,\"shards\":[",
              std::string(fasea::HealthStateName(aggregate)).c_str(),
              static_cast<int>(aggregate));
  for (int s = 0; s < shards; ++s) {
    std::printf("%s%s", s == 0 ? "" : ",",
                HealthJson("shard-" + std::to_string(s),
                           service.ShardHealth(s))
                    .c_str());
  }
  std::printf("]}\n");
  return static_cast<int>(aggregate);
}

int ChaosMain(int argc, char** argv) {
  fasea::FlagSet flags;
  flags.DefineString("schedule", "dying-disk",
                     "Named fault schedule (see --list) or an inline "
                     "'key=value;...' FaultSchedule string.");
  flags.DefineInt("threads", 2, "Closed-loop workers per cycle.");
  flags.DefineInt("rounds", 200, "Rounds served per cycle.");
  flags.DefineInt("cycles", 3, "Kill-and-recover cycles.");
  flags.DefineInt("seed", 1, "Root seed (drives every RNG in the run).");
  flags.DefineString("wal_dir", "",
                     "Fresh WAL directory for the run (default: "
                     "/tmp/fasea_chaos_cli.<pid>).");
  flags.DefineInt("shards", 0,
                  "0 runs the classic single-service harness; N>0 runs "
                  "the sharded harness (per-shard WALs, two-phase "
                  "cross-shard rounds) with N shards.");
  flags.DefineString("kill_mode", "one-shard",
                     "Sharded-only crash drill: one-shard | "
                     "coordinator-mid-commit | all | partition | "
                     "rebalance.");
  flags.DefineString("net_schedule", "",
                     "kill_mode=partition only: NetFaultSchedule spec "
                     "armed cycle-long on the simulated network "
                     "(default: the harness's 12% drop / 10% dup / "
                     "10% reorder mix).");
  flags.DefineInt("merge_every", 0,
                  "Sharded-only: delta-merge learner state every N "
                  "completed rounds (0 = off).");
  flags.DefineBool("list", false, "List named fault schedules and exit.");
  flags.DefineBool("help", false, "Show this help.");
  if (fasea::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "fasea_cli chaos: %s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.HelpText("fasea_cli chaos").c_str(), stdout);
    return 0;
  }
  if (flags.GetBool("list")) {
    for (std::string_view name : fasea::NamedFaultScheduleNames()) {
      auto schedule = fasea::NamedFaultSchedule(name);
      std::printf("%-16s %s\n", std::string(name).c_str(),
                  schedule.ok() ? schedule->ToString().c_str() : "?");
    }
    return 0;
  }

  const std::string& spec = flags.GetString("schedule");
  auto schedule = fasea::ResolveFaultSchedule(spec);
  if (!schedule.ok()) {
    std::fprintf(stderr, "fasea_cli chaos: %s\n",
                 schedule.status().ToString().c_str());
    return 2;
  }

  const int shards = static_cast<int>(flags.GetInt("shards"));
  if (shards > 0) {
    auto kill_mode = fasea::ParseKillMode(flags.GetString("kill_mode"));
    if (!kill_mode.ok()) {
      std::fprintf(stderr, "fasea_cli chaos: %s\n",
                   kill_mode.status().ToString().c_str());
      return 2;
    }
    fasea::ShardedChaosOptions options;
    options.schedule = *schedule;
    options.shards = shards;
    options.kill_mode = *kill_mode;
    options.rounds_per_cycle = flags.GetInt("rounds");
    options.cycles = static_cast<int>(flags.GetInt("cycles"));
    options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
    options.merge_every = flags.GetInt("merge_every");
    if (!flags.GetString("net_schedule").empty()) {
      options.net_schedule = flags.GetString("net_schedule");
    }
    options.wal_dir = flags.GetString("wal_dir");
    if (options.wal_dir.empty()) {
      options.wal_dir =
          "/tmp/fasea_chaos_cli." + std::to_string(::getpid());
    }
    if (fasea::Status st = fasea::Env::Default()->CreateDir(options.wal_dir);
        !st.ok()) {
      std::fprintf(stderr, "fasea_cli chaos: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("chaos: schedule=%s shards=%d kill_mode=%s rounds=%lld "
                "cycles=%d seed=%llu wal_dir=%s\n",
                spec.c_str(), shards,
                flags.GetString("kill_mode").c_str(),
                static_cast<long long>(options.rounds_per_cycle),
                options.cycles,
                static_cast<unsigned long long>(options.seed),
                options.wal_dir.c_str());
    auto report = fasea::RunShardedChaos(options);
    if (!report.ok()) {
      std::fprintf(stderr, "fasea_cli chaos: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::fputs(report->ToString().c_str(), stdout);
    return report->ok ? 0 : 1;
  }

  fasea::ChaosOptions options;
  options.schedule = *schedule;
  options.threads = static_cast<int>(flags.GetInt("threads"));
  options.rounds_per_cycle = flags.GetInt("rounds");
  options.cycles = static_cast<int>(flags.GetInt("cycles"));
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  options.wal_dir = flags.GetString("wal_dir");
  if (options.wal_dir.empty()) {
    options.wal_dir = "/tmp/fasea_chaos_cli." + std::to_string(::getpid());
  }
  if (fasea::Status st = fasea::Env::Default()->CreateDir(options.wal_dir);
      !st.ok()) {
    std::fprintf(stderr, "fasea_cli chaos: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("chaos: schedule=%s threads=%d rounds=%lld cycles=%d seed=%llu "
              "wal_dir=%s\n",
              spec.c_str(), options.threads,
              static_cast<long long>(options.rounds_per_cycle),
              options.cycles,
              static_cast<unsigned long long>(options.seed),
              options.wal_dir.c_str());
  auto report = fasea::RunChaos(options);
  if (!report.ok()) {
    std::fprintf(stderr, "fasea_cli chaos: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->ToString().c_str(), stdout);
  return report->ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "recover") {
    return RecoverMain(argc - 2, argv + 2);
  }
  if (argc > 1 && std::string_view(argv[1]) == "stats") {
    return StatsMain(argc - 2, argv + 2);
  }
  if (argc > 1 && std::string_view(argv[1]) == "replay") {
    return ReplayMain(argc - 2, argv + 2);
  }
  if (argc > 1 && std::string_view(argv[1]) == "chaos") {
    return ChaosMain(argc - 2, argv + 2);
  }
  if (argc > 1 && std::string_view(argv[1]) == "health") {
    return HealthMain(argc - 2, argv + 2);
  }
  return fasea::CliMain(argc, argv);
}
