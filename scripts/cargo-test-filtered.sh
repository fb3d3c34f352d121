#!/usr/bin/env bash
# `cargo test <args>`, failing when no test ran: a filter that matches
# nothing (a renamed or deleted test) must not pass as a green gate.
# Usage: scripts/cargo-test-filtered.sh -p ids-core --release -- stage_layout
set -euo pipefail
out=$(cargo test "$@" 2>&1 | tee /dev/stderr)
if ! grep -qE '^test result: [a-zA-Z]+\. [1-9][0-9]* passed' <<<"$out"; then
  echo "error: 'cargo test $*' ran no tests" >&2
  exit 1
fi
