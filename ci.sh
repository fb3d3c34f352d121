#!/usr/bin/env bash
# Local CI gate — same steps as .github/workflows/ci.yml.
# All dependencies are vendored (third_party/), so this runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> lint: no partial_cmp().unwrap float orderings"
# NaN makes partial_cmp(..).unwrap()/unwrap_or(Equal) orderings either
# panic or silently violate strict weak ordering — use total_cmp or a
# documented NaN-last comparator instead (see DESIGN.md 5g).
if grep -rnE 'partial_cmp\([^)]*\)[[:space:]]*\.unwrap' \
    --include='*.rs' crates tests examples 2>/dev/null \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|\*)'; then
  echo "error: partial_cmp().unwrap* ordering found — use total_cmp / a NaN-last total order" >&2
  exit 1
fi

echo "==> lint: tier occupancy/capacity mutated only inside the tier store"
# The per-tier `used`/`capacity` accounting is the invariant every other
# tiering property test leans on (occupancy never exceeds capacity, used
# equals the sum of resident entry sizes — see DESIGN.md 5k). All
# mutation goes through crates/cache/src/tier.rs; an assignment anywhere
# else in the cache crate would let the counters drift from the entries.
if grep -rnE '(\.used|\.capacity)[[:space:]]*[-+]?=([^=]|$)' \
    --include='*.rs' crates/cache/src 2>/dev/null \
    | grep -v 'crates/cache/src/tier\.rs'; then
  echo "error: tier used/capacity mutated outside crates/cache/src/tier.rs — go through TierStore" >&2
  exit 1
fi

echo "==> lint: retry-after hints constructed only via the shared Refusal helper"
# Every refusal the service emits must carry a load-derived retry-after
# hint computed in one place (crates/serve/src/error.rs — see DESIGN.md
# 5j). Hand-built `retry_after_secs:` literals elsewhere would let shed
# and overload paths drift apart.
if grep -rn 'retry_after_secs:' --include='*.rs' crates tests examples src 2>/dev/null \
    | grep -v 'crates/serve/src/error\.rs'; then
  echo "error: retry_after_secs constructed outside crates/serve/src/error.rs — use Refusal::backoff" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

# Tier-1 is the bare `cargo build --release && cargo test -q`, which covers
# the workspace `default-members`: the root package and the twelve library
# crates under crates/. `--workspace` here adds what tier-1 leaves out:
# `ids-bench` (figure/ablation/perf binaries, benches/micro.rs and its
# integration tests) and the vendored stand-ins under third_party/
# (bytes, criterion, parking_lot, proptest, serde, serde_derive).
echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Every `cargo test ... -- <filter>` step below goes through
# scripts/cargo-test-filtered.sh, which fails a filter that runs no test.

echo "==> model-kernel exactness at full size (ids-models, release)"
# The striped Smith–Waterman, lane-parallel DTBA and reach-pruned docking
# kernels against their scalar / all-pairs references: the same
# properties tier-1 runs unoptimised at lengths <= 200, here to 1500
# residues and 412-residue targets, where the debug reference is too slow.
scripts/cargo-test-filtered.sh -p ids-models --release -- kernels

echo "==> prepared UDF arguments vs the scalar closures (ids-core, release)"
# sw_similarity / dtba through a stage memo and through a direct call,
# against the per-call parse + kernel closures they replaced: value and
# charge bits, parse failures and the cached-DTBA path included, here at
# 412-residue targets and sequences to 1500 residues.
scripts/cargo-test-filtered.sh -p ids-core --release -- prepared_args

echo "==> BGP-kernel exactness at full size (ids-graph + ids-core, release)"
# The column-at-a-time scan, hash join, gather/append, repartition and
# result gather against the row-at-a-time loops they replaced (rows,
# order, column widths, streamed byte matrix): the same properties tier-1
# runs unoptimised at a few hundred rows, here at thousands of rows and
# hundreds of ranks. Then the rank-segmented stage layout against the
# per-rank batch path it replaced (scan, exchange, join, FILTER/APPLY
# gathers, rebalance, result gather) at 1, 3, 16 and 2 048 ranks.
scripts/cargo-test-filtered.sh -p ids-graph --release -- kernels
scripts/cargo-test-filtered.sh -p ids-core --release -- kernels
scripts/cargo-test-filtered.sh -p ids-core --release -- stage_layout

echo "==> shard pool x50 and streamed wire bytes at full size (ids-simrt + ids-core, release)"
# The span-stealing pool's order, skew and panic tests race real threads,
# so one pass says little: run them fifty times. Then the streamed
# exchange's rows, order and (source, destination) byte matrix against
# the barriered exchange and the per-rank sub-batch loop, at thousands of
# rows.
for _ in $(seq 50); do
  scripts/cargo-test-filtered.sh -p ids-simrt --release -q -- pool
done
scripts/cargo-test-filtered.sh -p ids-core --release -- \
    streamed_repartition_matches_barriered_rows_and_order \
    exchange_and_join_equal_the_per_rank_path

echo "==> prepared-query golden (tests/prepared_golden.rs, release)"
# Cold vs warm prepared-query cache: same rows, latency bits, resume
# ordinals and slice-trace hash, the hash pinned to the pre-cache commit;
# epoch invalidation; 5 000 distinct texts within capacity.
cargo test --release --test prepared_golden -q

echo "==> engine vs oracle (tests/engine_vs_oracle.rs, release)"
# The engine against the independent reference evaluator in tests/oracle/:
# random graphs and queries at 1, 3 and 16 ranks, every mode switch on and
# off, fault-free and under chaos; both fail or both return the same rows.
cargo test --release --test engine_vs_oracle -q

echo "==> parallel determinism golden (tests/parallel_determinism.rs, release)"
# Ranks on host threads: failing, deadline-bound, term-minting, dynamically
# loaded and cache-attached stages at 64 ranks, eight runs each, must return
# the rows, latency bits, breakdowns, annotations and error text of the
# last one-thread commit.
cargo test --release --test parallel_determinism -q

echo "==> ncnpr-udf model outputs (perf --verify-repeat, seed 7)"
# 2 048 ranks through the shard pool: two runs must agree on every virtual
# time, count and digest, and the window's median latency and digest must
# be the ones the one-thread executor printed. (The window is the first 5
# queries, so it does not depend on --seconds.)
perf_out=$(cargo run --release -p ids-bench --bin perf -- \
    --workload ncnpr-udf --seed 7 --seconds 2 --verify-repeat)
grep -q '^virtual_s_p50  *105\.875830230 s' <<<"$perf_out" \
  && grep -q '^bench.result_digest  *0xb6b4dcb81871314c$' <<<"$perf_out" || {
  echo "$perf_out"
  echo "error: ncnpr-udf virtual latency or result digest moved at seed 7" >&2
  exit 1
}

echo "==> bgp-join model outputs (perf --verify-repeat, seed 7)"
# 16 ranks of fat batches through scan, join, exchange and the result
# gather: two runs must agree on every virtual time, count and digest, and
# the window's median latency and digest must be the values recorded when
# this gate was added. (The window is the first 100 queries, so it does not
# depend on --seconds.)
perf_out=$(cargo run --release -p ids-bench --bin perf -- \
    --workload bgp-join --seed 7 --seconds 2 --verify-repeat)
grep -q '^virtual_s_p50  *0\.000410734 s' <<<"$perf_out" \
  && grep -q '^bench.result_digest  *0xa58800310e64b3e5$' <<<"$perf_out" || {
  echo "$perf_out"
  echo "error: bgp-join virtual latency or result digest moved at seed 7" >&2
  exit 1
}

echo "==> serve-mix model outputs (perf --verify-repeat, seed 7)"
# The whole submit/slice path under the benchmark's own output checks: two
# runs must agree on every virtual time, count and digest, and the window
# digest must be the one every commit since the benchmark landed printed.
# (The window is the first 16 384 operations, so it does not depend on
# --seconds.)
perf_out=$(cargo run --release -p ids-bench --bin perf -- \
    --workload serve-mix --seed 7 --seconds 2 --verify-repeat)
grep -q '^bench.result_digest  *0x28e6fdbcde9ba4d0$' <<<"$perf_out" || {
  echo "$perf_out"
  echo "error: serve-mix result digest moved at seed 7" >&2
  exit 1
}

echo "==> cargo clippy --workspace -- -D warnings"
# Also enforces ids-core's, ids-cache's and ids-graph's crate-level deny of
# unwrap()/expect() outside tests (DESIGN.md 5i): those paths return typed
# errors or `None`, since a panic in one rank's stage closure would poison
# the whole simulated cluster.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warning-clean)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> chaos matrix (tests/chaos_faults.rs, release)"
for seed in 1 2 3 4 5 6 7 8; do
  for rf in 1 2 3; do
    echo "---- CHAOS_SEED=$seed CHAOS_REPLICATION=$rf"
    CHAOS_SEED=$seed CHAOS_REPLICATION=$rf cargo test --release --test chaos_faults -q
  done
done

echo "==> pipeline parity matrix (tests/chaos_pipeline.rs, release)"
for seed in 1 2 3 4 5 6 7 8; do
  for mode in default tight; do
    echo "---- CHAOS_SEED=$seed CHAOS_PIPELINE=$mode"
    CHAOS_SEED=$seed CHAOS_PIPELINE=$mode cargo test --release --test chaos_pipeline -q
  done
done

echo "==> ablation_pipeline smoke (asserts byte-identical results, measurable speedup under stragglers)"
cargo run --release -p ids-bench --bin ablation_pipeline

echo "==> ablation_recovery smoke (asserts byte-identical resume, resume > restart, speculation recovers >= half the straggler loss)"
cargo run --release -p ids-bench --bin ablation_recovery

echo "==> recovery chaos matrix (tests/chaos_recovery.rs, release)"
for seed in 1 2 3 4 5 6 7 8; do
  for mode in default spiteful; do
    echo "---- CHAOS_SEED=$seed CHAOS_RECOVERY=$mode"
    CHAOS_SEED=$seed CHAOS_RECOVERY=$mode cargo test --release --test chaos_recovery -q
  done
done

echo "==> concurrency chaos matrix (tests/chaos_concurrency.rs, release)"
for seed in 1 2 3 4 5 6 7 8; do
  for clients in 4 16; do
    echo "---- CHAOS_SEED=$seed CHAOS_CONCURRENCY=$clients"
    CHAOS_SEED=$seed CHAOS_CONCURRENCY=$clients cargo test --release --test chaos_concurrency -q
  done
done

echo "==> overload chaos matrix (tests/chaos_overload.rs, release)"
for seed in 1 2 3 4 5 6 7 8; do
  for mode in default burst; do
    echo "---- CHAOS_SEED=$seed CHAOS_OVERLOAD=$mode"
    CHAOS_SEED=$seed CHAOS_OVERLOAD=$mode cargo test --release --test chaos_overload -q
  done
done

echo "==> tier chaos matrix (tests/chaos_tiers.rs, release)"
for seed in 1 2 3 4 5 6 7 8; do
  for mode in default coldstart; do
    echo "---- CHAOS_SEED=$seed CHAOS_TIERS=$mode"
    CHAOS_SEED=$seed CHAOS_TIERS=$mode cargo test --release --test chaos_tiers -q
  done
done

echo "==> adaptive chaos matrix (tests/chaos_adaptive.rs, release)"
for seed in 1 2 3 4 5 6 7 8; do
  for mode in default aggressive; do
    echo "---- CHAOS_SEED=$seed CHAOS_ADAPTIVE=$mode"
    CHAOS_SEED=$seed CHAOS_ADAPTIVE=$mode cargo test --release --test chaos_adaptive -q
  done
done

echo "==> ablation_adaptive smoke (asserts byte-identical results, adaptive >= 1.3x on NDV skew, replan on correlation, within 2% on uniform)"
cargo run --release -p ids-bench --bin ablation_adaptive

echo "==> ablation_overload smoke (asserts interactive p99/goodput within 2x of baseline under 4x overload, class-ordered shedding)"
cargo run --release -p ids-bench --bin ablation_overload

echo "==> ablation_cache_tiers smoke (asserts scan-resistant policies hold >=5x reuse at 4x DRAM, warm restart recovers >=80% hit rate)"
cargo run --release -p ids-bench --bin ablation_cache_tiers

echo "CI OK"
