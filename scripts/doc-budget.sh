#!/usr/bin/env bash
# Document budget: the files every change starts by reading stay a size one
# reading can hold. Fails when
#
#   1. DESIGN.md is over DESIGN_MAX bytes (a change that needs room deletes
#      something first; lower the cap as the file shrinks),
#   2. a CHANGES.md entry (one "- " line) is over 2 KiB,
#   3. ROADMAP.md is over 24 KiB, or
#   4. Go code cites a `DESIGN.md §N` that has no "## §N " heading.
set -euo pipefail
cd "$(dirname "$0")/.."

DESIGN_MAX=107991
ENTRY_MAX=2048
ROADMAP_MAX=24576
fail=0

size() { wc -c <"$1" | tr -d ' '; }

if [ "$(size DESIGN.md)" -gt "$DESIGN_MAX" ]; then
  echo "DESIGN.md is $(size DESIGN.md) bytes, over its $DESIGN_MAX-byte budget"
  fail=1
fi

long=$(LC_ALL=C awk -v max="$ENTRY_MAX" '/^- / && length($0) > max { printf "  line %d: %d bytes\n", NR, length($0) }' CHANGES.md)
if [ -n "$long" ]; then
  echo "CHANGES.md entries over $ENTRY_MAX bytes:"
  echo "$long"
  fail=1
fi

if [ "$(size ROADMAP.md)" -gt "$ROADMAP_MAX" ]; then
  echo "ROADMAP.md is $(size ROADMAP.md) bytes, over $ROADMAP_MAX"
  fail=1
fi

for n in $(grep -rhoE --include='*.go' 'DESIGN\.md §[0-9]+' . | grep -oE '[0-9]+$' | sort -un); do
  if ! grep -qE "^## §$n " DESIGN.md; then
    echo "Go code cites DESIGN.md §$n, which has no section:"
    grep -rnE --include='*.go' "DESIGN\.md §$n\b" . | sed 's/^/  /'
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "doc-budget: ok"
