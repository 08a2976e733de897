#!/bin/sh
# Behaviour oracle for refactors: the same-seed chaos traces of this
# checkout must be byte-identical to those of <rev>.
#
#   sh tools/trace_oracle.sh <rev>        e.g. HEAD~, or a pull request's base
#
# Builds <rev> in a temporary git worktree, runs the three traced chaos runs
# below on both trees and compares the trace files with cmp. Prints one
# line per run and exits 1 if any trace differs or any run fails. A change
# that alters timing on purpose (a perf change) is expected to differ.
set -u

rev=${1:?usage: sh tools/trace_oracle.sh <rev>}
root=$(git rev-parse --show-toplevel) || exit 2
work=$(mktemp -d "${TMPDIR:-/tmp}/trace-oracle.XXXXXX") || exit 2
base="$work/base"

cleanup() {
  git -C "$root" worktree remove --force "$base" >/dev/null 2>&1
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 2' INT TERM

git -C "$root" worktree add --quiet --detach "$base" "$rev" || exit 2
(cd "$root" && dune build bin/treaty.exe) || exit 2
(cd "$base" && dune build --root . bin/treaty.exe) || exit 2

status=0
n=0
for args in "--seed 1" "--cc occ --seed 1" "--nodes 100 --seed 5"; do
  n=$((n + 1))
  for tree in base head; do
    if [ "$tree" = base ]; then dir=$base; else dir=$root; fi
    # $args is split into words on purpose.
    # shellcheck disable=SC2086
    if ! "$dir/_build/default/bin/treaty.exe" chaos $args \
        --trace "$work/$tree.$n.json" >"$work/$tree.$n.out" 2>&1; then
      echo "FAILED  chaos $args ($tree):"
      sed 's/^/  /' "$work/$tree.$n.out"
      status=1
    fi
  done
  if cmp -s "$work/base.$n.json" "$work/head.$n.json"; then
    echo "same    chaos $args"
  else
    echo "DIFFERS chaos $args"
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "trace oracle: all traces byte-identical to $rev"
fi
exit "$status"
