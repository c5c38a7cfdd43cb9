#!/usr/bin/env bash
# Mutation ledger check: every mutation in scripts/mutations.txt must be
# caught by the tests of the packages it names. For each ledger line the
# script applies the mutation to a temporary copy of the tracked tree,
# requires that copy to still build, and requires `go test` of the named
# packages to fail. It fails when a mutant survives, does not compile, or its
# search string no longer occurs exactly once (a stale line).
#
# Ledger format: one mutation per line, four tab-separated fields
#
#   file <TAB> search <TAB> replacement <TAB> packages
#
# file is relative to the repository root; search and replacement are
# literal strings in which \n and \t stand for a newline and a tab;
# packages is a space-separated list for `go test`. No field may be empty.
# Blank lines and lines starting with # are ignored.
#
# Usage: scripts/mutate.sh [ledger]      (default scripts/mutations.txt)
set -uo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
ledger=${1:-$root/scripts/mutations.txt}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" ls-files -z | (cd "$root" && tar --null -T - -cf -) | tar -C "$tmp" -xf -

fail=0 n=0
while IFS=$'\t' read -r file search replace pkgs; do
  case "$file" in '' | '#'*) continue ;; esac
  n=$((n + 1))
  search=$(printf '%b' "$search")
  replace=$(printf '%b' "$replace")
  orig=$(cat "$tmp/$file"; printf x)
  orig=${orig%x}
  rest=${orig#*"$search"}
  if [ "$rest" = "$orig" ] || [ "${rest#*"$search"}" != "$rest" ]; then
    echo "STALE    $file: search string does not occur exactly once: $search"
    fail=1
    continue
  fi
  printf '%s' "${orig/"$search"/"$replace"}" >"$tmp/$file"
  # shellcheck disable=SC2086 # packages is a list
  if ! (cd "$tmp" && go build $pkgs 2>&1 && go vet $pkgs 2>&1) >"$tmp/.log"; then
    echo "BROKEN   $file: mutant does not compile or vet: $search"
    sed 's/^/    /' "$tmp/.log" | head -5
    fail=1
  elif (cd "$tmp" && go test -count=1 $pkgs) >"$tmp/.log" 2>&1; then
    echo "SURVIVED $file: $search -> $replace"
    fail=1
  else
    caught=$(grep -oE -- '--- FAIL: [^ ]+' "$tmp/.log" | cut -d' ' -f3 | sort -u | tr '\n' ' ')
    echo "caught   $file ($pkgs): ${caught:-build or panic}"
  fi
  printf '%s' "$orig" >"$tmp/$file"
done <"$ledger"

echo "mutate: $n mutations checked"
exit "$fail"
