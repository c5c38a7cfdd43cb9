#!/usr/bin/env bash
# Kernel-registry lint (DESIGN.md §15): kernels are dispatched through
# their capability descriptors, never by name. Two patterns regress that
# invariant and this script fails CI on either:
#
#   1. a `switch` on Kernel.Name() anywhere outside internal/algorithms
#      (the registry package owns names; everyone else owns traits), and
#   2. kernel-name string literals in case labels or ==/!= comparisons in
#      non-test Go source outside internal/algorithms — the monomorphized
#      special cases the descriptor API replaced. Tests may spell kernel
#      names (they assert on specific kernels by design); production code
#      must ask the descriptor instead.
#
# The scope is the root module. ./bench/ is a module of its own
# (piccolo/bench, the repository benchmark): a load generator that names its
# workload's kernels by their wire names, as any client of the HTTP API
# does, and dispatches nothing on them inside the engine.
set -euo pipefail
cd "$(dirname "$0")/.."

names='pr|bfs|cc|sssp|sswp|kcore|lp|ppr'
fail=0

switches=$(grep -rn --include='*.go' -E 'switch[^{]*\.Name\(\)' . \
  | grep -v -e '^\./internal/algorithms/' -e '^\./bench/' || true)
if [ -n "$switches" ]; then
  echo "kernel-name switch outside the registry (dispatch on Descriptor() instead):"
  echo "$switches"
  fail=1
fi

literals=$(grep -rn --include='*.go' --exclude='*_test.go' \
  -E "(case[[:space:]]+\"($names)\"|[!=]=[[:space:]]*\"($names)\")" . \
  | grep -v -e '^\./internal/algorithms/' -e '^\./bench/' || true)
if [ -n "$literals" ]; then
  echo "kernel-name literal dispatch outside the registry (ask the descriptor instead):"
  echo "$literals"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "kernel-registry-lint: ok"
