#!/usr/bin/env bash
# The CI gate. .github/workflows/ci.yml installs the toolchains and runs
# this script; run it the same way locally.
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

echo "==> UDF stage bookkeeping vs its references (ids-udf + root, release)"
# The throughput re-balance's selection of the largest remainders against
# the full sort it replaced (ties, k = 0, k = ranks - 1, the count-based
# fallback, and random rates over up to 2 048 ranks). Then every rank's
# UDF profile cells and the column order after three NCNPR queries at 64
# and 4 ranks, against the digest of the executor that recorded into a
# copy of the whole table. Once on every core, once pinned to one.
scripts/cargo-test-filtered.sh -p ids-udf --release -- rebalance::tests
taskset -c 0 scripts/cargo-test-filtered.sh -p ids-udf --release -- rebalance::tests
scripts/cargo-test-filtered.sh --release --test ncnpr_workflow -- profile_table
taskset -c 0 scripts/cargo-test-filtered.sh --release --test ncnpr_workflow -- profile_table

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

# Each workload runs twice through perf --verify-repeat: the two runs must
# agree on every virtual time, count and digest, and the window's median
# latency ("-": not pinned) and digest must be the pinned values. A window
# is a fixed prefix of the run, so it does not depend on --seconds:
# ncnpr-udf's first 5 queries (2 048 ranks through the shard pool; the
# values the one-thread executor printed), bgp-join's first 100 (16 ranks
# of fat batches through scan, join, exchange and the result gather; the
# values recorded when its gate was added), serve-mix's first 16 384
# operations (the whole submit/slice path; the digest every commit since
# the benchmark landed printed) and cache-tiers' first 40 blocks (get, put,
# spill, promote and repair over a working set 4x DRAM). The ncnpr-udf and
# bgp-join latencies moved from 105.875830230 s and 0.000410734 s when
# store and exchange took one placement function and joins stopped moving
# sides already placed on their key; the digests did not.
perf_gates=(
  "ncnpr-udf    104.232107191  0xb6b4dcb81871314c"
  "bgp-join     0.000406229    0xa58800310e64b3e5"
  "serve-mix    -              0x28e6fdbcde9ba4d0"
  "cache-tiers  0.419359240    0x31a0b0cd950394c0"
)
for row in "${perf_gates[@]}"; do
  read -r workload latency digest <<<"$row"
  echo "==> $workload model outputs (perf --verify-repeat, seed 7)"
  perf_out=$(cargo run --release -p ids-bench --bin perf -- \
      --workload "$workload" --seed 7 --seconds 2 --verify-repeat)
  moved="result digest"
  pinned=true
  if [ "$latency" != "-" ]; then
    moved="virtual latency or result digest"
    grep -q "^virtual_s_p50  *${latency//./\\.} s" <<<"$perf_out" || pinned=false
  fi
  grep -q "^bench.result_digest  *$digest\$" <<<"$perf_out" || pinned=false
  if [ "$pinned" = false ]; then
    echo "$perf_out"
    echo "error: $workload $moved moved at seed 7" >&2
    exit 1
  fi
done

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
# Each suite runs its whole seed x axis matrix in one process; a failure
# names its seed and axis value.
cargo test --release --test chaos_faults --test chaos_pipeline --test chaos_recovery \
    --test chaos_concurrency --test chaos_overload --test chaos_tiers --test chaos_adaptive -q

echo "CI OK"
