#!/usr/bin/env bash
# AddressSanitizer lane: the ids-cache unit tests, the ids-simrt shard
# pool tests, and the root package's parallel_determinism and
# chaos_concurrency suites built with -Zsanitizer=address (a nightly-only
# flag) in their own target directory, with stack use-after-return
# detection on. Without a nightly toolchain the lane says it was skipped
# instead of passing silently.
# Usage: scripts/asan.sh
set -euo pipefail
cd "$(dirname "$0")/.."
if ! host=$(rustup run nightly rustc -vV 2>/dev/null | sed -n 's/^host: //p') || [ -z "$host" ]; then
  echo "==> ASan lane SKIPPED: no nightly toolchain installed (rustup toolchain install nightly)"
  exit 0
fi
# An explicit --target keeps the sanitizer off build scripts.
export RUSTUP_TOOLCHAIN=nightly
export RUSTFLAGS="-Zsanitizer=address"
export ASAN_OPTIONS="detect_stack_use_after_return=1"
asan=(--target "$host" --target-dir target/asan)
scripts/cargo-test-filtered.sh -p ids-cache --lib "${asan[@]}" -q
scripts/cargo-test-filtered.sh -p ids-simrt --lib "${asan[@]}" -q -- pool
scripts/cargo-test-filtered.sh -p ids --test parallel_determinism --test chaos_concurrency \
  "${asan[@]}" -q
