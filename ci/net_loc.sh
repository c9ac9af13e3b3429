#!/usr/bin/env bash
# Net lines of code of a change, per top-level directory.
#
# For each of src, tools, tests, bench and perfbench, prints the lines
# added, deleted and net from `git diff --numstat -M <base> -- <dir>`,
# then a src+tools total (every change states its net LoC for src/ and
# tools/). The path filter makes a file moved out of a directory count
# as deleted there and added where it lands; a rename inside one
# directory counts only its changed lines. The diff runs from <base> to
# the working tree, so new files count once they are staged.
#
# Usage: ci/net_loc.sh [base]
#   base defaults to origin/main when that ref exists, else HEAD~1.

set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -ge 1 ]]; then
  base="$1"
elif git rev-parse --verify --quiet origin/main >/dev/null; then
  base=origin/main
else
  base=HEAD~1
fi
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  echo "net_loc.sh: unknown base '$base'" >&2
  exit 1
fi

echo "net LoC since $base"
printf '%-10s %8s %8s %8s\n' dir added deleted net
sum_added=0
sum_deleted=0
for dir in src tools tests bench perfbench; do
  # Binary files report "-" for both counts; they carry no lines.
  read -r added deleted < <(git diff --numstat -M "$base" -- "$dir" |
    awk '$1 != "-" { a += $1; d += $2 } END { print a + 0, d + 0 }')
  printf '%-10s %8d %8d %+8d\n' "$dir" "$added" "$deleted" \
    "$((added - deleted))"
  if [[ $dir == src || $dir == tools ]]; then
    sum_added=$((sum_added + added))
    sum_deleted=$((sum_deleted + deleted))
  fi
done
printf '%-10s %8d %8d %+8d\n' src+tools "$sum_added" "$sum_deleted" \
  "$((sum_added - sum_deleted))"
