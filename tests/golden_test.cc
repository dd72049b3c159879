// Golden byte-identity table: seeded outputs are hashed (CRC32C) and
// compared with the committed table tests/golden/digests.txt, so a change
// that moves a single output bit fails here instead of in a hand-run md5
// comparison.
//
//  * fig1/<policy>: the fig1 default slice (ApplyScale(0.005), so T = 500;
//    data seed 20170514, run seed 42, Kendall τ on) for every policy it
//    runs plus the OPT reference. Every trajectory column is hashed except
//    the timing ones (avg_round_seconds, latency_*) and memory_bytes,
//    which measures scratch capacity rather than what the policy did. The
//    slice runs at 1 and at 4 threads and both must give the same digests
//    (the determinism contract).
//  * serve/<policy>: the feedback-WAL and decision-log bytes of a short
//    sequential ArrangementService run, one per PolicyKind.
//  * batched/<policy>: the feedback-WAL bytes of the same traffic served
//    one arrival at a time through snapshot scoring (ServeUserBatched),
//    for every policy batching accepts.
//  * lazy/<learner>/<policy>: a static-context world with lazy contexts
//    under the epoch-64 and the sketch learner.
//  * scores/<policy>: the raw score row each ridge policy's scoring
//    routine writes (through ScoreBatchSnapshot) before every round of
//    the serving traffic. Arrangements alone would not show a change
//    that keeps every score's rank, such as a one-ulp shift.
//  * sharded/<policy>/{wal,decisions}: the per-shard feedback WALs and
//    decision logs of the `fasea_cli stats --decision_log --shards=4`
//    drive loop at its defaults, one per PolicyKind.
//  * chaos/<cell>: the report text plus every WAL file of a deterministic
//    chaos cell (`fasea_cli chaos --cycles=3 --rounds=150 --seed=11`):
//    the unsharded harness at --threads=1 under four fault schedules, and
//    the 4-shard harness under each kill mode and three schedules.
//
// The table pins every build on every x86-64 host: the SIMD kernel tier
// the host runs (linalg/kernel_table.h) changes speed, not bits.
//
// A change that moves bytes on purpose regenerates the table with
//
//     FASEA_GOLDEN_UPDATE=1 build/tests/golden_test
//
// and names every moved digest, with its reason, in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/linear_policy_base.h"
#include "core/policy_factory.h"
#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/chaos_harness.h"
#include "ebsn/sharded_service.h"
#include "io/crc32c.h"
#include "io/env.h"
#include "io/wal.h"
#include "obs/decision_log.h"
#include "sim/experiment.h"

namespace fasea {
namespace {

using Digests = std::map<std::string, std::uint32_t>;

const std::string kTablePath = std::string(FASEA_GOLDEN_DIR) + "/digests.txt";

std::uint32_t TrajectoryDigest(const TrajectoryResult& r) {
  std::string bytes = r.name;
  for (std::int64_t c : r.checkpoints) AppendI64(&bytes, c);
  for (const std::vector<double>* column :
       {&r.cum_rewards, &r.cum_arranged, &r.accept_ratio, &r.total_regret,
        &r.regret_ratio, &r.kendall_tau}) {
    AppendU64(&bytes, column->size());
    AppendDoubles(&bytes, *column);
  }
  AppendDouble(&bytes, r.final_reward);
  AppendDouble(&bytes, r.final_arranged);
  AppendDouble(&bytes, r.final_regret);
  return Crc32c(bytes);
}

void AddSimulation(const std::string& prefix, const SimulationResult& result,
                   Digests* out) {
  (*out)[prefix + "OPT"] = TrajectoryDigest(result.reference);
  for (const TrajectoryResult& r : result.policies) {
    (*out)[prefix + r.name] = TrajectoryDigest(r);
  }
}

Digests Fig1Digests(int threads) {
  SyntheticExperiment exp;
  exp.data.seed = 20170514;
  exp.run_seed = 42;
  ApplyScale(0.005, &exp.data);  // T = 500.
  exp.compute_kendall = true;
  exp.threads = threads;
  Digests digests;
  AddSimulation("fig1/", RunSyntheticExperiment(exp), &digests);
  return digests;
}

// Every file under `root` whose relative path `keep` accepts, in sorted
// relative-path order, path and bytes chained into one CRC.
template <typename Keep>
std::uint32_t TreeDigest(const std::string& root, Keep keep) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = fs::relative(entry.path(), root).string();
    if (keep(path)) paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  std::uint32_t crc = 0;
  for (const std::string& path : paths) {
    auto bytes = Env::Default()->ReadFileToString(JoinPath(root, path));
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    if (!bytes.ok()) continue;
    crc = Crc32c(path, crc);
    crc = Crc32c(*bytes, crc);
  }
  return crc;
}

std::uint32_t DirDigest(const std::string& dir) {
  return TreeDigest(dir, [](const std::string&) { return true; });
}

// An empty `dir` (its decision-log sibling removed too) under the test's
// scratch directory.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fasea_golden_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(DecisionLogDirName(dir));
  std::filesystem::create_directories(dir);
  return dir;
}

SyntheticConfig ServeConfig() {
  SyntheticConfig config;
  config.num_events = 30;
  config.dim = 5;
  config.horizon = 80;
  config.seed = 2017;
  return config;
}

constexpr std::uint64_t kServeSeed = 7;
const PolicyKind kAllKinds[] = {PolicyKind::kUcb,     PolicyKind::kTs,
                                PolicyKind::kEpsGreedy, PolicyKind::kExploit,
                                PolicyKind::kRandom,  PolicyKind::kBoltzmann};

WalOptions Unsynced() {
  WalOptions options;
  options.sync_mode = WalSyncMode::kNever;  // Bytes do not depend on it.
  return options;
}

// The `fasea_cli stats --decision_log` drive loop, in process.
void RecordSequential(PolicyKind kind, const std::string& dir) {
  const SyntheticConfig config = ServeConfig();
  auto world = SyntheticWorld::Create(config);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  Env* env = Env::Default();
  ArrangementService service(&(*world)->instance(), kind, PolicyParams{},
                             kServeSeed);
  auto wal = WalWriter::Open(env, dir, Unsynced());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  service.AttachWal(std::move(wal).value());
  DecisionLogHeader header;
  header.num_events = config.num_events;
  header.dim = config.dim;
  header.horizon = config.horizon;
  header.workload_seed = config.seed;
  header.policy_id = std::string(PolicyKindName(kind));
  header.policy_seed = kServeSeed;
  auto dlog = DecisionLogWriter::Open(env, DecisionLogDirName(dir), header,
                                      Unsynced());
  ASSERT_TRUE(dlog.ok()) << dlog.status().ToString();
  service.AttachDecisionLog(std::move(dlog).value());
  Pcg64 feedback_rng(config.seed, /*stream=*/99);
  for (std::int64_t t = 1; t <= config.horizon; ++t) {
    const RoundContext& round = (*world)->provider().NextRound(t);
    auto served =
        service.ServeUser(round.user_id, round.user_capacity, round.contexts);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const Feedback feedback = (*world)->feedback().Sample(
        t, round.contexts, *served, feedback_rng);
    ASSERT_TRUE(service.SubmitFeedback(feedback).ok());
  }
  ASSERT_TRUE(service.mutable_decision_log()->Close().ok());
}

void RecordBatched(PolicyKind kind, const std::string& dir) {
  const SyntheticConfig config = ServeConfig();
  auto world = SyntheticWorld::Create(config);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  ArrangementService service(&(*world)->instance(), kind, PolicyParams{},
                             kServeSeed);
  auto wal = WalWriter::Open(Env::Default(), dir, Unsynced());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  service.AttachWal(std::move(wal).value());
  service.ConfigureBatching(BatchingOptions{});
  Pcg64 feedback_rng(config.seed, /*stream=*/99);
  for (std::int64_t t = 1; t <= config.horizon; ++t) {
    const RoundContext& round = (*world)->provider().NextRound(t);
    auto served = service.ServeUserBatched(round.user_id, round.user_capacity,
                                           round.contexts);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const Feedback feedback = (*world)->feedback().Sample(
        t, round.contexts, served->arrangement, feedback_rng);
    ASSERT_TRUE(service.SubmitBatchedFeedback(served->ticket, feedback).ok());
  }
}

Digests ServeDigests() {
  Digests digests;
  for (PolicyKind kind : kAllKinds) {
    const std::string name(PolicyKindName(kind));
    const std::string dir = FreshDir("serve_" + name);
    RecordSequential(kind, dir);
    digests["serve/" + name + "/wal"] = DirDigest(dir);
    digests["serve/" + name + "/decisions"] =
        DirDigest(DecisionLogDirName(dir));
    if (kind == PolicyKind::kRandom || kind == PolicyKind::kBoltzmann) {
      continue;  // Batching needs a snapshot rule (ConfigureBatching).
    }
    const std::string batched_dir = FreshDir("batched_" + name);
    RecordBatched(kind, batched_dir);
    digests["batched/" + name + "/wal"] = DirDigest(batched_dir);
  }
  return digests;
}

// The `fasea_cli stats --decision_log --shards=4` drive loop at the
// command's defaults (|V| = 100, d = 10, 1000 rounds, seed 7), in process.
void RecordSharded(PolicyKind kind, const std::string& dir) {
  SyntheticConfig config;
  config.num_events = 100;
  config.dim = 10;
  config.horizon = 1000;
  config.seed = 7;
  auto world = SyntheticWorld::Create(config);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  Env* env = Env::Default();
  ShardedOptions options;
  options.num_shards = 4;
  options.kind = kind;
  options.seed = config.seed;
  ShardedArrangementService service(&(*world)->instance(), options);
  ASSERT_TRUE(service.AttachWals(env, dir, Unsynced()).ok());
  DecisionLogHeader header;
  header.num_events = config.num_events;
  header.dim = config.dim;
  header.horizon = config.horizon;
  header.workload_seed = config.seed;
  header.policy_id = std::string(PolicyKindName(kind));
  header.policy_seed = config.seed;
  ASSERT_TRUE(service.AttachDecisionLogs(env, dir, header, Unsynced()).ok());
  Pcg64 feedback_rng(config.seed, /*stream=*/99);
  for (std::int64_t t = 1; t <= config.horizon; ++t) {
    const RoundContext& round = (*world)->provider().NextRound(t);
    auto served =
        service.ServeUser(round.user_id, round.user_capacity, round.contexts);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const Feedback feedback = (*world)->feedback().Sample(
        t, round.contexts, served->arrangement, feedback_rng);
    ASSERT_TRUE(service.SubmitFeedback(served->txn, feedback).ok());
  }
  ASSERT_TRUE(service.CloseDecisionLogs().ok());
}

Digests ShardedDigests() {
  Digests digests;
  for (PolicyKind kind : kAllKinds) {
    const std::string name(PolicyKindName(kind));
    const std::string dir = FreshDir("sharded_" + name);
    RecordSharded(kind, dir);
    const auto is_decisions = [](const std::string& path) {
      return path.find("-decisions/") != std::string::npos;
    };
    digests["sharded/" + name + "/wal"] = TreeDigest(
        dir, [&](const std::string& path) { return !is_decisions(path); });
    digests["sharded/" + name + "/decisions"] = TreeDigest(dir, is_decisions);
  }
  return digests;
}

// The report text chained with every file the cell left under `dir`.
template <typename Report>
std::uint32_t ChaosDigest(const StatusOr<Report>& report,
                          const std::string& dir) {
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return 0;
  EXPECT_TRUE(report->ok) << report->ToString();
  return Crc32c(report->ToString(), DirDigest(dir));
}

Digests ChaosDigests() {
  constexpr std::uint64_t kChaosSeed = 11;
  Digests digests;
  for (const char* schedule :
       {"clean", "dying-disk", "torn-tail", "flaky-appends"}) {
    ChaosOptions options;
    options.schedule = NamedFaultSchedule(schedule).value();
    options.threads = 1;
    options.rounds_per_cycle = 150;
    options.cycles = 3;
    options.seed = kChaosSeed;
    options.wal_dir = FreshDir(std::string("chaos_") + schedule);
    digests[std::string("chaos/unsharded/") + schedule] =
        ChaosDigest(RunChaos(options), options.wal_dir);
  }
  for (std::string_view mode : ShardKillModeNames()) {
    for (const char* schedule : {"clean", "dying-disk", "torn-tail"}) {
      const std::string cell = std::string(mode) + "/" + schedule;
      ShardedChaosOptions options;
      options.schedule = NamedFaultSchedule(schedule).value();
      options.shards = 4;
      options.kill_mode = ParseKillMode(mode).value();
      options.rounds_per_cycle = 150;
      options.cycles = 3;
      options.seed = kChaosSeed;
      options.wal_dir = FreshDir("chaos_" + std::string(mode) + "_" + schedule);
      digests["chaos/4shards/" + cell] =
          ChaosDigest(RunShardedChaos(options), options.wal_dir);
    }
  }
  return digests;
}

Digests ScoreDigests() {
  const SyntheticConfig config = ServeConfig();
  auto world = SyntheticWorld::Create(config);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  if (!world.ok()) return {};
  const ProblemInstance& instance = (*world)->instance();
  Digests digests;
  for (PolicyKind kind : {PolicyKind::kUcb, PolicyKind::kTs,
                          PolicyKind::kEpsGreedy, PolicyKind::kExploit}) {
    auto policy = MakePolicy(kind, &instance, PolicyParams{}, kServeSeed);
    auto* linear = dynamic_cast<LinearPolicyBase*>(policy.get());
    PlatformState state(instance);
    Pcg64 feedback_rng(config.seed, /*stream=*/99);
    Matrix row(1, instance.num_events());
    std::string bytes;
    for (std::int64_t t = 1; t <= config.horizon; ++t) {
      const RoundContext& round = (*world)->provider().NextRound(t);
      const SnapshotRound arrival{t, &round};
      RowResolve resolve = RowResolve::kGreedy;
      linear->ScoreBatchSnapshot(*linear->MakeSnapshot(),
                                 std::span<const SnapshotRound>(&arrival, 1),
                                 &row, std::span<RowResolve>(&resolve, 1));
      AppendDoubles(&bytes, row.Row(0));
      bytes.push_back(resolve == RowResolve::kRandom ? 'r' : 'g');
      const Arrangement arrangement = policy->Propose(t, round, state);
      const Feedback feedback = (*world)->feedback().Sample(
          t, round.contexts, arrangement, feedback_rng);
      for (std::size_t i = 0; i < arrangement.size(); ++i) {
        if (feedback[i]) state.ConsumeOne(arrangement[i]);
      }
      policy->Learn(t, round, arrangement, feedback);
    }
    digests["scores/" + std::string(PolicyKindName(kind))] = Crc32c(bytes);
  }
  return digests;
}

Digests LazyDigests() {
  SyntheticExperiment exp;
  exp.data.num_events = 200;
  exp.data.dim = 10;
  exp.data.horizon = 400;
  exp.data.event_capacity_mean = 20.0;
  exp.data.event_capacity_stddev = 5.0;
  exp.data.seed = 20170514;
  exp.data.static_contexts = true;
  exp.data.lazy_contexts = true;
  exp.run_seed = 42;
  exp.kinds = AllPolicyKinds();
  exp.kinds.push_back(PolicyKind::kBoltzmann);
  Digests digests;
  exp.params.learner.mode = LearnerMode::kEpoch;
  exp.params.learner.epoch_length = 64;
  AddSimulation("lazy/epoch64/", RunSyntheticExperiment(exp), &digests);
  exp.params.learner = LearnerConfig{};
  exp.params.learner.mode = LearnerMode::kSketch;
  exp.params.learner.sketch_size = 4;
  AddSimulation("lazy/sketch4/", RunSyntheticExperiment(exp), &digests);
  return digests;
}

Digests ReadTable() {
  Digests table;
  std::ifstream in(kTablePath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hex;
    fields >> key >> hex;
    table[key] = static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16));
  }
  return table;
}

void WriteTable(const Digests& digests) {
  std::ofstream out(kTablePath);
  out << "# CRC32C digests of seeded outputs (tests/golden_test.cc).\n"
      << "# Regenerate: FASEA_GOLDEN_UPDATE=1 build/tests/golden_test\n";
  for (const auto& [key, crc] : digests) {
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x", crc);
    out << key << ' ' << hex << '\n';
  }
}

TEST(GoldenTest, SeededOutputsMatchTheCommittedTable) {
  const Digests fig1_single = Fig1Digests(/*threads=*/1);
  EXPECT_EQ(fig1_single, Fig1Digests(/*threads=*/4))
      << "the fig1 slice depends on the thread count";

  Digests computed = fig1_single;
  computed.merge(ServeDigests());
  computed.merge(ShardedDigests());
  computed.merge(ChaosDigests());
  computed.merge(ScoreDigests());
  computed.merge(LazyDigests());

  if (std::getenv("FASEA_GOLDEN_UPDATE") != nullptr) {
    WriteTable(computed);
    GTEST_SKIP() << "wrote " << computed.size() << " digests to "
                 << kTablePath;
  }
  const Digests table = ReadTable();
  ASSERT_FALSE(table.empty()) << "no golden table at " << kTablePath;
  for (const auto& [key, crc] : table) {
    auto it = computed.find(key);
    if (it == computed.end()) {
      ADD_FAILURE() << key << ": in the table but no longer computed";
    } else {
      EXPECT_EQ(it->second, crc) << key << ": output bytes changed";
    }
  }
  for (const auto& [key, crc] : computed) {
    EXPECT_TRUE(table.count(key) > 0) << key << ": missing from the table";
  }
}

}  // namespace
}  // namespace fasea
