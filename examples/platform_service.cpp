// Platform service: embedding FASEA behind the EBSN facade a production
// platform would use.
//
// Shows the full deployment lifecycle:
//  1. describe events in an EventCatalog (names, capacities, schedules);
//  2. serve arriving users through ArrangementService (the online
//     protocol of Definition 3 is enforced — one proposal per user,
//     feedback required before the next arrival);
//  3. persist every round to a write-ahead log (the WAL is the only
//     round history the service keeps) and cut a binary checkpoint;
//  4. recover the learner two ways — checkpoint restore, and WAL replay
//     into a fresh policy (RecoverArrangementService with no
//     checkpoint) — and verify the replay agrees with the live service.
//
//   ./platform_service     (writes its WAL under the system temp dir)
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "ebsn/arrangement_service.h"
#include "ebsn/event_catalog.h"
#include "ebsn/recovery_manager.h"
#include "io/env.h"
#include "rng/distributions.h"
#include "rng/seed.h"

namespace {

using namespace fasea;

constexpr std::size_t kDim = 4;

// Contexts derived from event tags + per-round noise (in a real platform:
// the feature pipeline of Table 3).
ContextMatrix BuildContexts(const EventCatalog& catalog, Pcg64& rng) {
  ContextMatrix ctx(catalog.size(), kDim);
  for (std::size_t v = 0; v < catalog.size(); ++v) {
    const EventSpec& spec = catalog.Get(v);
    ctx(v, 0) = spec.tags.size() > 0 && spec.tags[0] == "music" ? 0.4 : 0.1;
    ctx(v, 1) = spec.tags.size() > 0 && spec.tags[0] == "sports" ? 0.4 : 0.1;
    ctx(v, 2) = spec.start_time >= 18.0 ? 0.3 : 0.05;  // Evening event.
    ctx(v, 3) = UniformReal(rng, 0.0, 0.3);            // Distance-ish.
  }
  return ctx;
}

}  // namespace

int main() {
  // 1. The catalog.
  EventCatalog catalog;
  struct Row {
    const char* name;
    std::int64_t cap;
    double start, end;
    const char* tag;
  };
  const Row rows[] = {
      {"Friday Jazz Night", 40, 24.0 * 4 + 20.0, 24.0 * 4 + 23.0, "music"},
      {"Saturday Derby", 200, 24.0 * 5 + 15.0, 24.0 * 5 + 17.0, "sports"},
      {"Saturday Opera", 25, 24.0 * 5 + 19.0, 24.0 * 5 + 22.0, "music"},
      {"Saturday Rock Concert", 60, 24.0 * 5 + 20.0, 24.0 * 5 + 23.0,
       "music"},  // Conflicts with the opera.
      {"Sunday Marathon", 500, 24.0 * 6 + 8.0, 24.0 * 6 + 13.0, "sports"},
  };
  for (const Row& row : rows) {
    EventSpec spec;
    spec.name = row.name;
    spec.capacity = row.cap;
    spec.start_time = row.start;
    spec.end_time = row.end;
    spec.tags = {row.tag};
    FASEA_CHECK_OK(catalog.Add(spec).status());
  }
  auto instance = catalog.BuildInstance(kDim);
  FASEA_CHECK_OK(instance.status());
  std::printf("Catalog: %zu events, %zu schedule conflicts\n",
              catalog.size(), instance->conflicts().num_conflicts());
  for (const auto& [a, b] : instance->conflicts().edges()) {
    std::printf("  conflict: %s <-> %s\n", catalog.Name(a).c_str(),
                catalog.Name(b).c_str());
  }

  // 2. Serve 200 arriving users, every round written ahead to a WAL.
  Env* env = Env::Default();
  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "fasea_platform_service_wal")
          .string();
  std::filesystem::remove_all(wal_dir);
  FASEA_CHECK_OK(env->CreateDir(wal_dir));
  auto wal = WalWriter::Open(env, wal_dir);
  FASEA_CHECK_OK(wal.status());
  ArrangementService service(&instance.value(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/11);
  service.AttachWal(std::move(wal).value());
  Vector taste{0.5, 0.1, 0.6, -0.4};  // Hidden: music + evenings, near.
  taste.Normalize();
  LinearFeedbackModel truth(taste);
  Pcg64 ctx_rng = MakeEngine(3, "ctx");
  Pcg64 fb_rng = MakeEngine(3, "fb");

  std::int64_t accepted = 0;
  for (std::int64_t user = 0; user < 200; ++user) {
    const ContextMatrix contexts = BuildContexts(catalog, ctx_rng);
    auto proposal = service.ServeUser(user, /*user_capacity=*/2, contexts);
    FASEA_CHECK_OK(proposal.status());
    const Feedback feedback =
        truth.Sample(user + 1, contexts, *proposal, fb_rng);
    FeedbackResult result;
    FASEA_CHECK_OK(service.SubmitFeedback(feedback, &result));
    FASEA_CHECK(result.durable);
    accepted += static_cast<std::int64_t>(NumAccepted(feedback));
  }
  std::printf("\nServed %lld users; %lld events accepted (every round "
              "durable in the WAL).\n",
              static_cast<long long>(service.rounds_served()),
              static_cast<long long>(accepted));
  std::printf("Remaining capacities:\n");
  for (std::size_t v = 0; v < catalog.size(); ++v) {
    std::printf("  %-22s %lld/%lld\n", catalog.Name(v).c_str(),
                static_cast<long long>(service.state().remaining(v)),
                static_cast<long long>(instance->capacity(v)));
  }

  // 3. Persist: the WAL already holds every round; cut a checkpoint too.
  const std::string checkpoint = service.Checkpoint();
  std::printf("\nCheckpoint blob: %zu bytes.\n", checkpoint.size());

  // 4a. Recover the learner from the checkpoint alone.
  auto restored =
      ArrangementService::FromCheckpoint(&instance.value(), checkpoint, 11);
  FASEA_CHECK_OK(restored.status());
  // 4b. Recover the whole service by replaying the WAL into a fresh
  // policy: no checkpoint, the same Learn calls the live service made.
  RecoveryOptions options;
  options.kind = PolicyKind::kUcb;
  options.seed = 11;
  auto recovered = RecoverArrangementService(&instance.value(), env, wal_dir,
                                             /*checkpoint_blob=*/"", options);
  FASEA_CHECK_OK(recovered.status());
  std::printf("WAL replay: %lld records, %lld rounds served.\n",
              static_cast<long long>(recovered->report.records_replayed),
              static_cast<long long>(recovered->service->rounds_served()));

  const auto* live = dynamic_cast<const LinearPolicyBase*>(&service.policy());
  const auto* from_wal =
      dynamic_cast<const LinearPolicyBase*>(&recovered->service->policy());
  const double divergence =
      from_wal->ridge().Y().MaxAbsDiff(live->ridge().Y());
  std::printf("Replayed-from-WAL Gram matrix differs from live by %.2e "
              "(expected 0).\n",
              divergence);
  FASEA_CHECK(divergence == 0.0);
  std::printf("\nLearned taste estimate (music, sports, evening, "
              "distance):\n  ");
  for (std::size_t j = 0; j < kDim; ++j) {
    std::printf("%+.3f ", live->ridge().ThetaHat()[j]);
  }
  std::printf("\n  vs hidden: ");
  for (std::size_t j = 0; j < kDim; ++j) std::printf("%+.3f ", taste[j]);
  std::printf("\n");
  std::filesystem::remove_all(wal_dir);
  return 0;
}
