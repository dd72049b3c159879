#!/usr/bin/env bash
# Tier-1 verification: the plain build + full test suite, then the same
# tests again under AddressSanitizer + UndefinedBehaviorSanitizer
# (-DFASEA_SANITIZE=ON), then the concurrency tests under ThreadSanitizer
# (-DFASEA_SANITIZE=thread — TSan cannot link with ASan, so the tiers are
# mutually exclusive and build in separate trees). Run from anywhere;
# trees live in build/, build-sanitize/, and build-tsan/ at the
# repository root.
#
#   tools/check.sh                  # plain + ASan/UBSan + TSan tiers
#   tools/check.sh --metrics-smoke  # also smoke-test `fasea_cli stats`
#   tools/check.sh --perf-smoke     # also assert batched >= scalar scoring,
#                                   # UCB Learn <= 0.75x TS Learn, and the
#                                   # active SIMD tier's batched widths
#                                   # <= 0.6x the SSE2 tier's
#   tools/check.sh --chaos-smoke    # also run the chaos soak matrix
#   tools/check.sh --shard-smoke    # also run the sharded kill-mode drills
#   tools/check.sh --replay-smoke   # also record + counterfactually replay
#                                   # a decision log (IPS self-check)
#   tools/check.sh --load-smoke     # also drive bench/load_service through
#                                   # the sequential and batched protocols,
#                                   # and check that 10x the rounds leaves
#                                   # peak RSS within 1.10x
#   tools/check.sh --scale-smoke    # also run the bounded-scale parity
#                                   # bench (lazy-vs-eager, unit-epoch) and
#                                   # small tab5/tab6 bounded-scale slices;
#                                   # the exit code is the parity verdict
#   tools/check.sh --net-smoke      # also run the net-labeled suites plus
#                                   # partition + rebalance chaos drills;
#                                   # the exit code is the invariant verdict
#
# The `soak` ctest label (the full chaos matrix) is excluded from the
# plain and sanitizer tiers; --chaos-smoke opts into it explicitly.
# The `shard` label marks the sharded-serving suites; they run in every
# tier, and --shard-smoke additionally drives `fasea_cli chaos --shards`
# through each kill mode.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

metrics_smoke=0
perf_smoke=0
chaos_smoke=0
shard_smoke=0
replay_smoke=0
load_smoke=0
scale_smoke=0
net_smoke=0
for arg in "$@"; do
  case "$arg" in
    --metrics-smoke) metrics_smoke=1 ;;
    --perf-smoke) perf_smoke=1 ;;
    --chaos-smoke) chaos_smoke=1 ;;
    --shard-smoke) shard_smoke=1 ;;
    --replay-smoke) replay_smoke=1 ;;
    --load-smoke) load_smoke=1 ;;
    --scale-smoke) scale_smoke=1 ;;
    --net-smoke) net_smoke=1 ;;
    *)
      echo "check.sh: unknown argument '$arg'" \
           "(supported: --metrics-smoke --perf-smoke --chaos-smoke" \
           "--shard-smoke --replay-smoke --load-smoke --scale-smoke" \
           "--net-smoke)" >&2
      exit 2
      ;;
  esac
done

# A configure failure (broken CMakeLists edit, missing toolchain) must
# stop the run with its actual error, not scroll by suppressed before the
# build step dies confusingly.
configure() {
  local dir="$1"
  shift
  if ! cmake -B "$dir" -S "$root" "$@" >"$dir.configure.log" 2>&1; then
    echo "check.sh: FATAL: cmake configure failed for $dir" >&2
    echo "check.sh: last 30 lines of $dir.configure.log:" >&2
    tail -n 30 "$dir.configure.log" >&2
    exit 1
  fi
}

echo "== tier-1: plain build + ctest =="
configure "$root/build"
cmake --build "$root/build" -j "$jobs"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs" -LE soak

echo
echo "== sanitizers: ASan + UBSan build + ctest =="
echo "sanitizer tier: AddressSanitizer + UndefinedBehaviorSanitizer" \
     "(-DFASEA_SANITIZE=ON)"
# Benchmarks and examples add nothing to sanitizer coverage of the
# library; skip them so the instrumented build stays fast.
configure "$root/build-sanitize" \
  -DFASEA_SANITIZE=ON \
  -DFASEA_BUILD_BENCHMARKS=OFF \
  -DFASEA_BUILD_EXAMPLES=OFF
cmake --build "$root/build-sanitize" -j "$jobs"
ctest --test-dir "$root/build-sanitize" --output-on-failure -j "$jobs" \
  -LE soak

echo
echo "== sanitizers: TSan build + concurrency tests =="
echo "sanitizer tier: ThreadSanitizer (-DFASEA_SANITIZE=thread);" \
     "runs the thread-pool / parallel-sim / service-concurrency / shard" \
     "suites"
configure "$root/build-tsan" \
  -DFASEA_SANITIZE=thread \
  -DFASEA_BUILD_BENCHMARKS=OFF \
  -DFASEA_BUILD_EXAMPLES=OFF
cmake --build "$root/build-tsan" -j "$jobs"
# The shard suites ride along here because ShardedArrangementService is
# a concurrent serving surface (per-shard locks + atomic counters), and
# the batched/admission suites because snapshot publication and
# ticket-order resolution run concurrently with scoring; the soak label
# is excluded as in the other tiers.
ctest --test-dir "$root/build-tsan" --output-on-failure -j "$jobs" \
  -R '(thread_pool|parallel|concurrency|shard|batched|admission|net|transport|rebalance)' \
  -LE soak

if [[ "$chaos_smoke" -eq 1 ]]; then
  echo
  echo "== chaos smoke: soak matrix + fasea_cli chaos =="
  # The full deterministic matrix: every named fault schedule at two
  # thread counts, with kill-and-recover cycles and invariant checks.
  ctest --test-dir "$root/build" --output-on-failure -L soak
  # And the operator-facing path: a dying disk must trip the breaker,
  # serve degraded, re-close after the faults clear, and exit 0.
  "$root/build/tools/fasea_cli" chaos --schedule=dying-disk --threads=2 \
    --rounds=100 --cycles=2 --seed=4 \
    --wal_dir="$root/build/chaos-smoke-wal.$$"
  rm -rf "$root/build/chaos-smoke-wal.$$"
  echo "chaos smoke: all schedules passed their invariants"
fi

if [[ "$shard_smoke" -eq 1 ]]; then
  echo
  echo "== shard smoke: sharded kill-mode drills via fasea_cli chaos =="
  # A short multi-shard chaos run per kill mode: each drill kills at
  # least one shard (one-shard and all also do a full end-of-cycle
  # crash), recovers from the per-shard WALs, and checks all seven
  # invariants. The mid-commit drill runs clean — its contract needs a
  # durable decision; the other two run under a faulted schedule.
  for mode in one-shard coordinator-mid-commit all; do
    schedule=flaky-appends
    [[ "$mode" == coordinator-mid-commit ]] && schedule=clean
    wal="$root/build/shard-smoke-wal.$$.$mode"
    "$root/build/tools/fasea_cli" chaos --shards=4 --kill_mode="$mode" \
      --schedule="$schedule" --rounds=60 --cycles=2 --seed=9 \
      --wal_dir="$wal"
    rm -rf "$wal"
  done
  # And the health probe across the sharded path must report healthy
  # (exit code 0 IS the verdict).
  "$root/build/tools/fasea_cli" health --shards=4 --rounds=120 \
    --num_events=16 --dim=4 >/dev/null
  echo "shard smoke: every kill mode passed all seven invariants"
fi

if [[ "$replay_smoke" -eq 1 ]]; then
  echo
  echo "== replay smoke: record a decision log, replay, IPS self-check =="
  wal="$root/build/replay-smoke-wal.$$"
  rm -rf "$wal" "$wal-decisions"
  # Record a short default-setting (fig1-shaped) run with the genuinely
  # stochastic behavior policy, then replay it. --self_check exits
  # non-zero unless behavior-as-candidate reproduces the observed mean
  # reward exactly (w ≡ 1 ⇒ IPS = observed, zero context mismatches).
  "$root/build/tools/fasea_cli" stats --decision_log --policy=boltzmann \
    --rounds=500 --num_events=100 --dim=10 --seed=7 \
    --wal_dir="$wal" >/dev/null
  "$root/build/tools/fasea_cli" replay --log="$wal" --self_check
  # And the A/B path must run clean over the same log.
  "$root/build/tools/fasea_cli" replay --log="$wal" \
    --policy=ucb,egreedy >/dev/null
  rm -rf "$wal" "$wal-decisions"
  echo "replay smoke: IPS self-check passed"
fi

if [[ "$load_smoke" -eq 1 ]]; then
  echo
  echo "== load smoke: sequential + batched serving under load =="
  # A short closed-loop run through each protocol. load_service exits
  # non-zero when any serving invariant is violated (completed rounds !=
  # the service's rounds_served(), batched rounds left pending, fewer
  # rounds than asked), so the exit code is the verdict; the grep
  # additionally pins a nonzero throughput line into the check output.
  for mode in "" "--batched"; do
    # shellcheck disable=SC2086  # $mode is intentionally word-split.
    "$root/build/bench/load_service" --threads=4 --rounds=2000 \
      --warmup=200 --num_events=50 --dim=8 $mode \
      | tee "$root/build/load_smoke.out"
    grep -Eq 'throughput +[1-9]' "$root/build/load_smoke.out"
    grep -Eq 'invariant violations +0' "$root/build/load_smoke.out"
  done
  # Bounded memory: the service keeps no per-round history (the WAL is
  # the only one), so serving 10x the rounds must not raise the peak
  # RSS by more than 10%.
  for mode in "" "--batched"; do
    for rounds in 20000 200000; do
      # shellcheck disable=SC2086  # $mode is intentionally word-split.
      "$root/build/bench/load_service" --threads=1 --rounds="$rounds" \
        --num_events=50 --dim=8 $mode >"$root/build/load_rss_$rounds.out"
    done
    python3 - "$root/build/load_rss_20000.out" \
      "$root/build/load_rss_200000.out" "${mode:-sequential}" <<'PY'
import re
import sys

def peak_mb(path):
    with open(path) as f:
        match = re.search(r"peak RSS +([0-9.]+) MB", f.read())
    assert match, f"no peak RSS line in {path}"
    return float(match.group(1))

short, long_, mode = peak_mb(sys.argv[1]), peak_mb(sys.argv[2]), sys.argv[3]
assert long_ <= 1.10 * short, (
    f"load smoke ({mode}): peak RSS grew from {short:.1f} MB at 20k rounds "
    f"to {long_:.1f} MB at 200k (> 1.10x): does the service keep "
    f"per-round history?")
print(f"load smoke ({mode}): peak RSS {short:.1f} MB at 20k rounds, "
      f"{long_:.1f} MB at 200k ({long_ / short:.2f}x) OK")
PY
  done
  echo "load smoke: both protocols clean"
fi

if [[ "$scale_smoke" -eq 1 ]]; then
  echo
  echo "== scale smoke: lazy/epoch parity + bounded-scale bench slices =="
  # micro_scale --parity reruns every policy lazy-vs-eager and
  # unit-epoch-vs-exact and exits non-zero on the first trajectory that
  # is not bit-identical — under `set -e` its exit code is the verdict.
  "$root/build/bench/micro_scale" --parity
  # A tiny slice of the bounded-scale tab5/tab6 sections (|V| = 10000,
  # d up to 200) proves the scale configurations run end to end.
  FASEA_SCALE=0.001 "$root/build/bench/tab5_scal_v" \
    >"$root/build/scale_smoke_tab5.out"
  FASEA_SCALE=0.001 "$root/build/bench/tab6_scal_d" \
    >"$root/build/scale_smoke_tab6.out"
  grep -q "Bounded scale" "$root/build/scale_smoke_tab5.out"
  grep -q "Bounded scale" "$root/build/scale_smoke_tab6.out"
  echo "scale smoke: parity clean, bounded-scale slices ran"
fi

if [[ "$net_smoke" -eq 1 ]]; then
  echo
  echo "== net smoke: transport suites + partition/rebalance drills =="
  # The net-labeled suites (envelope codec, simulated network, client/
  # server discipline, transport-backed service, rebalancing) first.
  ctest --test-dir "$root/build" --output-on-failure -j "$jobs" -L net
  # Then the operator-facing drills. Partition: cycle-long drop/dup/
  # reorder faults at >=10% rates plus a mid-cycle partition of the
  # round-robin victim; the run exits non-zero unless every transaction
  # clears after the heal (invariant 8) and the union replay stays
  # bit-identical. Rebalance: a grow per cycle, first with an injected
  # crash (must abort cleanly), then for real, with capacity
  # conservation audited against the drain snapshot (invariant 9).
  wal="$root/build/net-smoke-wal.$$.partition"
  "$root/build/tools/fasea_cli" chaos --shards=3 --kill_mode=partition \
    --schedule=clean --rounds=40 --cycles=2 --seed=11 \
    --net_schedule="drop_rate=0.15;dup_rate=0.12;reorder_rate=0.12;jitter_ticks=2" \
    --wal_dir="$wal"
  rm -rf "$wal"
  wal="$root/build/net-smoke-wal.$$.rebalance"
  "$root/build/tools/fasea_cli" chaos --shards=3 --kill_mode=rebalance \
    --schedule=flaky-appends --rounds=40 --cycles=2 --seed=12 \
    --wal_dir="$wal"
  rm -rf "$wal"
  echo "net smoke: transport + rebalance drills passed their invariants"
fi

if [[ "$metrics_smoke" -eq 1 ]]; then
  echo
  echo "== metrics smoke: fasea_cli stats =="
  "$root/build/tools/fasea_cli" stats --rounds=1000 --trace_rounds=2 \
    >"$root/build/stats.json"
  python3 - "$root/build/stats.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    snap = json.load(f)
hist = snap["histograms"]["fasea.serve.latency_ns"]
assert hist["count"] >= 1000, hist
for key in ("p50", "p95", "p99", "max"):
    assert key in hist, f"missing {key} in serve-latency histogram"
assert "fasea.wal.fsyncs" in snap["counters"], "missing WAL fsync counter"
assert "fasea.service.degraded_entries" in snap["counters"], \
    "missing degraded-mode counter"
print("metrics smoke: serve-latency histogram OK "
      f"(count={hist['count']}, p50={hist['p50']}ns, p99={hist['p99']}ns)")
PY
fi

if [[ "$perf_smoke" -eq 1 ]]; then
  echo
  echo "== perf smoke: batched vs scalar UCB propose (d=50, |V|=1000)," \
       "UCB vs TS learn (d=15), SIMD tier widths (|V|=100, d=16) =="
  "$root/build/bench/micro_policies" \
    --benchmark_filter='BM_UcbPropose(Batched|Scalar)/1000/50|BM_(Ucb|Ts)Learn/15$' \
    --benchmark_format=json --benchmark_min_time=0.2 \
    >"$root/build/perf_smoke.json"
  # Medians of five repetitions: a single 0.2-s reading of either row can
  # be off by a quarter on a shared host.
  "$root/build/bench/micro_linalg" \
    --benchmark_filter='BM_WidthBatch(Tier_sse2)?/100/16$' \
    --benchmark_format=json --benchmark_min_time=0.2 \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    >"$root/build/perf_smoke_tiers.json"
  # fasea_cli stats names the tier the kernels run on stderr.
  wal="$root/build/perf-smoke-wal.$$"
  "$root/build/tools/fasea_cli" stats --rounds=1 --wal_dir="$wal" \
    2>&1 >/dev/null | sed -n 's/^kernels: \([a-z0-9]*\) tier$/\1/p' \
    >"$root/build/perf_smoke_tier.txt"
  rm -rf "$wal"
  python3 - "$root/build/perf_smoke.json" "$root/build/perf_smoke_tiers.json" \
    "$root/build/perf_smoke_tier.txt" <<'PY'
import json
import sys

def times(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b["real_time"] for b in data["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}

def medians(path):
    with open(path) as f:
        data = json.load(f)
    return {b["run_name"]: b["real_time"] for b in data["benchmarks"]
            if b.get("aggregate_name") == "median"}

policies = times(sys.argv[1])
batched = policies["BM_UcbProposeBatched/1000/50"]
scalar = policies["BM_UcbProposeScalar/1000/50"]
# The batched path must not regress below the scalar reference; 10%
# slack absorbs single-core timer noise (the real margin is ~1.5x even
# on portable SSE2 codegen, far outside the slack).
assert batched <= 1.10 * scalar, (
    f"batched UCB propose ({batched:.0f}ns) slower than scalar "
    f"({scalar:.0f}ns) at d=50, |V|=1000")
print(f"perf smoke: batched {batched:.0f}ns <= scalar {scalar:.0f}ns "
      f"({scalar / batched:.2f}x) OK")
# Only TS samples, so only TS's learner keeps a Cholesky factor: UCB's
# Learn skips the O(d^2) rank-1 factor update per observation. At d=15 it
# reads about 0.5x TS's; a factor maintained for every policy again
# reads about 1x.
ucb_learn = policies["BM_UcbLearn/15"]
ts_learn = policies["BM_TsLearn/15"]
assert ucb_learn <= 0.75 * ts_learn, (
    f"UCB learn ({ucb_learn:.0f}ns) above 0.75x TS learn "
    f"({ts_learn:.0f}ns) at d=15: is a Cholesky factor maintained "
    f"for a policy that does not sample?")
print(f"perf smoke: UCB learn {ucb_learn:.0f}ns <= 0.75x TS learn "
      f"{ts_learn:.0f}ns ({ucb_learn / ts_learn:.2f}x) OK")
# The kernels run the widest SIMD tier the host supports. BM_WidthBatch
# goes through that dispatch; the SSE2 row runs the 2-lane tier
# directly. With a wider tier active, the batched widths at |V|=100,
# d=16 read about 0.4-0.5x the SSE2 tier's; dispatch stuck on SSE2
# reads about 1x.
with open(sys.argv[3]) as f:
    tier = f.read().strip()
assert tier, "fasea_cli stats printed no kernel tier"
print(f"perf smoke: active SIMD tier {tier}")
tiers = medians(sys.argv[2])
active = tiers["BM_WidthBatch/100/16"]
sse2 = tiers["BM_WidthBatchTier_sse2/100/16"]
if tier in ("sse2", "generic"):
    print(f"perf smoke: widths {active:.0f}ns at the base tier; "
          f"no wider tier to compare")
else:
    assert active <= 0.6 * sse2, (
        f"batched widths at the {tier} tier ({active:.0f}ns) above 0.6x "
        f"the SSE2 tier's ({sse2:.0f}ns) at |V|=100, d=16: does the "
        f"dispatch run the wide kernels?")
    print(f"perf smoke: {tier} widths {active:.0f}ns <= 0.6x SSE2 "
          f"{sse2:.0f}ns ({active / sse2:.2f}x) OK")
PY
fi

echo
echo "check.sh: all clean"
