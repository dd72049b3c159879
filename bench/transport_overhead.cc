// Transport overhead: the same closed-loop sharded workload driven
// twice — once on the loopback (no network attached: every protocol
// step calls the shard's handler directly), once over the simulated
// message network (ConfigureTransport) — and the per-round cost gap
// between them.
//
// The loop is single-threaded on purpose: the network path serializes
// behind the service's internal mutex, so one driver measures exactly
// the per-round pipeline (envelope codec, fault dice, pump, replay
// cache) with no contention noise, and the run is bit-reproducible per
// seed. Both modes run the same protocol code, and on a clean fabric
// they produce identical arrangements and capacity consumption (the
// bench checks round counts agree); the ratio is therefore the
// simulated network's cost over the same protocol. --net_schedule arms
// a lossy fabric for the wire mode to show the retry/timeout
// amplification on top.
//
//   transport_overhead --rounds=2000 --shards=4
//   transport_overhead --net_schedule="drop_rate=0.1;dup_rate=0.1"
//
// The "[transport]" lines are machine-readable (key=value).
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "datagen/synthetic.h"
#include "ebsn/sharded_service.h"
#include "net/network.h"
#include "rng/pcg64.h"
#include "rng/seed.h"

namespace {

struct ModeResult {
  std::int64_t served = 0;
  std::int64_t cross_shard = 0;
  double seconds = 0.0;
  bool ok = true;
};

// One closed-loop pass: serve, sample feedback from the synthetic
// ground truth, submit. Contention cannot happen (one driver), so any
// serve failure is real and fails the mode.
ModeResult DriveRounds(fasea::ShardedArrangementService& service,
                       fasea::SyntheticWorld& world,
                       std::int64_t target_rounds, std::uint64_t seed) {
  using namespace fasea;
  ModeResult result;
  Pcg64 rng(DeriveSeed(seed, "transport-overhead-feedback"), 0);
  Stopwatch wall;
  wall.Start();
  for (std::int64_t i = 0; i < target_rounds; ++i) {
    const RoundContext round = world.provider().NextRound(i + 1);
    auto served =
        service.ServeUser(round.user_id, round.user_capacity, round.contexts);
    if (!served.ok()) {
      std::fprintf(stderr, "transport_overhead: serve %lld failed: %s\n",
                   static_cast<long long>(i),
                   served.status().ToString().c_str());
      result.ok = false;
      break;
    }
    const Feedback feedback = world.feedback().Sample(
        i + 1, round.contexts, served->arrangement, rng);
    if (Status st = service.SubmitFeedback(served->txn, feedback); !st.ok()) {
      std::fprintf(stderr, "transport_overhead: feedback %lld failed: %s\n",
                   static_cast<long long>(i), st.ToString().c_str());
      result.ok = false;
      break;
    }
    ++result.served;
  }
  wall.Stop();
  result.seconds = wall.ElapsedSeconds();
  result.cross_shard = service.Stats().cross_shard_rounds;
  return result;
}

double NsPerRound(const ModeResult& r) {
  return r.served > 0 ? r.seconds * 1e9 / static_cast<double>(r.served) : 0.0;
}

double RoundsPerSec(const ModeResult& r) {
  return r.seconds > 0 ? static_cast<double>(r.served) / r.seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fasea;

  FlagSet flags;
  flags.DefineInt("rounds", 2000, "Rounds per mode.");
  flags.DefineInt("shards", 4, "Shard count for both modes.");
  flags.DefineInt("num_events", 48, "|V| of the synthetic workload.");
  flags.DefineInt("dim", 8, "Context dimension d.");
  flags.DefineInt("seed", 7, "Workload + policy + network seed.");
  flags.DefineString("net_schedule", "",
                     "NetFaultSchedule spec armed on the wire mode "
                     "(empty = clean fabric).");
  flags.DefineBool("help", false, "Show this help.");
  if (Status st = flags.Parse(argc - 1, argv + 1); !st.ok()) {
    std::fprintf(stderr, "transport_overhead: %s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.HelpText("transport_overhead").c_str(), stdout);
    return 0;
  }
  const std::int64_t rounds = flags.GetInt("rounds");
  const int shards = static_cast<int>(flags.GetInt("shards"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed"));

  SyntheticConfig config;
  config.num_events = static_cast<std::size_t>(flags.GetInt("num_events"));
  config.dim = static_cast<std::size_t>(flags.GetInt("dim"));
  config.horizon = 2 * rounds;
  config.seed = seed;
  if (Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "transport_overhead: %s\n", st.ToString().c_str());
    return 2;
  }
  auto world = SyntheticWorld::Create(config);
  if (!world.ok()) {
    std::fprintf(stderr, "transport_overhead: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  ShardedOptions options;
  options.num_shards = shards;
  options.seed = seed;

  std::printf("transport_overhead: %lld rounds/mode, %d shard(s), "
              "|V|=%zu, d=%zu, schedule=%s\n",
              static_cast<long long>(rounds), shards, config.num_events,
              config.dim,
              flags.GetString("net_schedule").empty()
                  ? "clean"
                  : flags.GetString("net_schedule").c_str());

  // Mode 1: the loopback, the §12 baseline.
  ModeResult loopback;
  {
    ShardedArrangementService service(&(*world)->instance(), options);
    loopback = DriveRounds(service, **world, rounds, seed);
  }
  if (!loopback.ok) return 1;

  // Mode 2: the same protocol as envelopes over the simulated
  // network. The network must outlive the service (the servers
  // unregister on destruction), hence the declaration order.
  ModeResult wired;
  std::int64_t messages = 0, dropped = 0, retries = 0, timeouts = 0,
               dup_suppressed = 0;
  {
    SimulatedNetwork net(DeriveSeed(seed, "transport-overhead-net"));
    ShardedArrangementService service(&(*world)->instance(), options);
    if (Status st = service.ConfigureTransport(&net); !st.ok()) {
      std::fprintf(stderr, "transport_overhead: %s\n", st.ToString().c_str());
      return 1;
    }
    if (const std::string& spec = flags.GetString("net_schedule");
        !spec.empty()) {
      auto schedule = NetFaultSchedule::Parse(spec);
      if (!schedule.ok()) {
        std::fprintf(stderr, "transport_overhead: %s\n",
                     schedule.status().ToString().c_str());
        return 2;
      }
      net.ApplySchedule(*schedule);
    }
    wired = DriveRounds(service, **world, rounds, seed);
    messages = net.stats().sent;
    dropped = net.stats().dropped;
    retries = service.TransportRetries();
    timeouts = service.TransportTimeouts();
    dup_suppressed = service.TransportDupSuppressed();
  }
  if (!wired.ok) return 1;
  if (loopback.served != wired.served) {
    std::fprintf(stderr,
                 "transport_overhead: mode round counts diverged "
                 "(%lld vs %lld)\n",
                 static_cast<long long>(loopback.served),
                 static_cast<long long>(wired.served));
    return 1;
  }

  const double ratio = NsPerRound(loopback) > 0
                           ? NsPerRound(wired) / NsPerRound(loopback)
                           : 0.0;
  std::printf("\nresults:\n");
  std::printf("  loopback     %10.0f ns/round  %8.0f rounds/s  "
              "(%lld cross-shard)\n",
              NsPerRound(loopback), RoundsPerSec(loopback),
              static_cast<long long>(loopback.cross_shard));
  std::printf("  simulated    %10.0f ns/round  %8.0f rounds/s  "
              "(%lld cross-shard)\n",
              NsPerRound(wired), RoundsPerSec(wired),
              static_cast<long long>(wired.cross_shard));
  std::printf("  overhead     %.2fx (%lld messages, %.1f msgs/round, "
              "%lld dropped, %lld retries, %lld timeouts, "
              "%lld dup-suppressed)\n",
              ratio, static_cast<long long>(messages),
              wired.served > 0
                  ? static_cast<double>(messages) /
                        static_cast<double>(wired.served)
                  : 0.0,
              static_cast<long long>(dropped),
              static_cast<long long>(retries),
              static_cast<long long>(timeouts),
              static_cast<long long>(dup_suppressed));

  std::printf("[transport] mode=loopback rounds=%lld ns_per_round=%.0f "
              "rounds_per_s=%.0f cross_shard=%lld\n",
              static_cast<long long>(loopback.served), NsPerRound(loopback),
              RoundsPerSec(loopback),
              static_cast<long long>(loopback.cross_shard));
  std::printf("[transport] mode=simulated_net rounds=%lld ns_per_round=%.0f "
              "rounds_per_s=%.0f cross_shard=%lld messages=%lld "
              "dropped=%lld retries=%lld timeouts=%lld dup_suppressed=%lld\n",
              static_cast<long long>(wired.served), NsPerRound(wired),
              RoundsPerSec(wired), static_cast<long long>(wired.cross_shard),
              static_cast<long long>(messages),
              static_cast<long long>(dropped),
              static_cast<long long>(retries),
              static_cast<long long>(timeouts),
              static_cast<long long>(dup_suppressed));
  std::printf("[transport] overhead_ratio=%.4f shards=%d num_events=%zu "
              "dim=%zu schedule=%s\n",
              ratio, shards, config.num_events, config.dim,
              flags.GetString("net_schedule").empty() ? "clean" : "faulted");
  return 0;
}
