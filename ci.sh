#!/usr/bin/env bash
# Local CI gate — same steps as .github/workflows/ci.yml.
# The workspace has no registry dependencies: bytes and proptest are
# stand-ins under third_party/, and the micro-benches time themselves
# with std only, so this runs fully offline.
# The ASan lane needs a nightly toolchain and says when it skips.
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
# `ids-bench` (the repro and perf binaries, benches/micro.rs and its
# integration tests) and the vendored stand-ins under third_party/
# (bytes, proptest).
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
# The prepared docking receptor runs whole default searches against the
# search it replaced (energy, pose, evaluations), and only here is its
# prepare timed (<= 0.2 ms; its <= 64 KiB heap is checked in any build).
scripts/cargo-test-filtered.sh -p ids-models --release -- kernels

echo "==> prepared UDF arguments vs the scalar closures (ids-udf + ids-core, release)"
# The memo's keying: each argument position keyed apart (one id at two
# positions), constants prepared per call and never kept, a panicking
# prepare at position 1 leaving no entry, unbound variables failing in
# argument order. Then sw_similarity / pic50 / dtba / vina_docking through
# an instance's argument memo and through a direct call (every position
# prepared, then the call), against the per-call parse + kernel closures
# they replaced: value and charge bits, parse failures and the cached-DTBA
# path included, here at 412-residue targets and sequences to 1500
# residues. Then the memo's instance lifetime: repeated queries prepare
# nothing at any position, and a query after ingest prepares exactly the
# new sequences, SMILES and proteins and returns a fresh instance's rows.
# Then a full NCNPR FILTER row (sw_similarity, pic50, dtba) of memo hits
# allocates nothing. Once on every core, once pinned to one: the prepare
# counts must read the same on one worker and on two.
scripts/cargo-test-filtered.sh -p ids-udf --release -- memo::tests
scripts/cargo-test-filtered.sh -p ids-core --release -- prepared_args
scripts/cargo-test-filtered.sh --release --test ncnpr_workflow -- prepared_args_persist
taskset -c 0 scripts/cargo-test-filtered.sh --release --test ncnpr_workflow -- prepared_args_persist
scripts/cargo-test-filtered.sh --release --test alloc_budget -- a_full_ncnpr_filter_row
taskset -c 0 scripts/cargo-test-filtered.sh --release --test alloc_budget -- a_full_ncnpr_filter_row

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
# so one pass says little: run them fifty times, and once on one core.
# Then the streamed exchange's rows, order and (source, destination) byte
# matrix against the barriered exchange and the per-rank sub-batch loop,
# at thousands of rows.
for _ in $(seq 50); do
  scripts/cargo-test-filtered.sh -p ids-simrt --release -q -- pool
done
# On one core the process's pool starts no helper thread at all.
taskset -c 0 scripts/cargo-test-filtered.sh -p ids-simrt --release -q -- pool
scripts/cargo-test-filtered.sh -p ids-core --release -- \
    streamed_repartition_matches_barriered_rows_and_order \
    exchange_and_join_equal_the_per_rank_path

echo "==> prepared-query golden (tests/prepared_golden.rs, release)"
# Cold vs warm prepared-query cache: same rows, latency bits, resume
# ordinals and slice-trace hash, the hash pinned to the pre-cache commit;
# epoch invalidation; 5 000 distinct texts within capacity.
cargo test --release --test prepared_golden -q

echo "==> canonicalisation parity golden (tests/proptest_iql.rs, release)"
# Canonical text, fingerprint and rename pairs of every checkpoint prefix
# of 2 500 generated and 14 hand-written queries, pinned to one
# digest recorded before the canonicaliser stopped building intermediate
# strings: reuse keys and prepared identities are built from these.
scripts/cargo-test-filtered.sh --release --test proptest_iql -- canonical_forms_are_pinned_bit_for_bit

echo "==> engine vs oracle (tests/engine_vs_oracle.rs, release)"
# The engine against the independent reference evaluator in tests/oracle/:
# random graphs and queries at 1, 3 and 16 ranks, every mode switch on and
# off, fault-free and under chaos; both fail or both return the same rows.
cargo test --release --test engine_vs_oracle -q

echo "==> stage-buffer reuse (release)"
# Allocation budgets: a 2 048-rank query's per-step allocation count, and
# the large allocations of one 16-rank star-join run (its stage buffers
# come from the run's free list). Once on every core, once pinned to one
# core: the one-worker path, where no helper thread takes buffers and the
# counts are exact. Then the cache's hot paths: a local-DRAM get hit, an
# overwrite put of 64 KiB and the CRC-32 of 64 KiB.
cargo test --release --test alloc_budget --test stage_buffer_reuse -q
taskset -c 0 cargo test --release --test alloc_budget --test stage_buffer_reuse -q
cargo test --release -p ids-cache --test alloc_budget -q

echo "==> AddressSanitizer (nightly; ids-cache, ids-simrt pool, parallel_determinism, chaos_concurrency)"
# The cache manager's tier moves, the shard pool's lifetime-erased worker
# loop and the engine's parallel stages under -Zsanitizer=address with
# stack use-after-return detection, in target/asan; prints SKIPPED when
# no nightly is installed.
scripts/asan.sh

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
# queries, so it does not depend on --seconds.) The latency moved from
# 105.875830230 s when store and exchange took one placement function and
# joins stopped moving sides already placed on their key; the digest did
# not.
perf_out=$(cargo run --release -p ids-bench --bin perf -- \
    --workload ncnpr-udf --seed 7 --seconds 2 --verify-repeat)
grep -q '^virtual_s_p50  *104\.232107191 s' <<<"$perf_out" \
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
# depend on --seconds.) The latency moved from 0.000410734 s when store and
# exchange took one placement function and joins stopped moving sides
# already placed on their key; the digest did not.
perf_out=$(cargo run --release -p ids-bench --bin perf -- \
    --workload bgp-join --seed 7 --seconds 2 --verify-repeat)
grep -q '^virtual_s_p50  *0\.000406229 s' <<<"$perf_out" \
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

echo "==> cache-tiers model outputs (perf --verify-repeat, seed 7)"
# Get, put, spill, promote and repair over a working set 4x DRAM: two runs
# must agree on every virtual time, count and digest, and the window's
# median latency and digest must be the values recorded when this gate was
# added. (The window is the first 40 blocks, so it does not depend on
# --seconds.)
perf_out=$(cargo run --release -p ids-bench --bin perf -- \
    --workload cache-tiers --seed 7 --seconds 2 --verify-repeat)
grep -q '^virtual_s_p50  *0\.419359240 s' <<<"$perf_out" \
  && grep -q '^bench.result_digest  *0x31a0b0cd950394c0$' <<<"$perf_out" || {
  echo "$perf_out"
  echo "error: cache-tiers virtual latency or result digest moved at seed 7" >&2
  exit 1
}

echo "==> cargo clippy --workspace -- -D warnings"
# Also enforces the crate-level deny of unwrap()/expect() outside tests in
# every library crate (DESIGN.md 5i): those paths return typed errors or
# `None`, since a panic in one rank's stage closure would poison the whole
# simulated cluster.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warning-clean)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> experiments vs golden (repro, release; once on every core, once pinned to one)"
# Every paper table, figure and ablation, with all their asserts: stdout
# (virtual time and seeded data only) must equal the committed golden, on
# any number of worker threads. Regenerate it with the same command
# redirected to bench_results/repro.txt, and review the diff.
cargo run --release -p ids-bench --bin repro > target/repro.txt
diff -u bench_results/repro.txt target/repro.txt
taskset -c 0 cargo run --release -p ids-bench --bin repro > target/repro.txt
diff -u bench_results/repro.txt target/repro.txt

echo "==> chaos matrices (tests/chaos_*.rs, release)"
# One row per suite: the test, its axis variable and the axis values
# ("-" = no axis). Every suite runs once per CHAOS_SEED and axis value.
chaos_matrix=(
  "chaos_faults       CHAOS_REPLICATION 1 2 3"
  "chaos_pipeline     -"
  "chaos_recovery     CHAOS_RECOVERY    default spiteful"
  "chaos_concurrency  CHAOS_CONCURRENCY 4 16"
  "chaos_overload     CHAOS_OVERLOAD    default burst"
  "chaos_tiers        -"
  "chaos_adaptive     CHAOS_ADAPTIVE    default aggressive"
)
for row in "${chaos_matrix[@]}"; do
  read -r test axis values <<<"$row"
  for seed in 1 2 3 4 5 6 7 8; do
    if [ "$axis" = "-" ]; then
      echo "---- $test CHAOS_SEED=$seed"
      CHAOS_SEED=$seed cargo test --release --test "$test" -q
      continue
    fi
    for value in $values; do
      echo "---- $test CHAOS_SEED=$seed $axis=$value"
      env CHAOS_SEED="$seed" "$axis=$value" cargo test --release --test "$test" -q
    done
  done
done

echo "CI OK"
