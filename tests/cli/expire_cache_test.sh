#!/bin/sh
# `expire -t trips` drops the artifact cache entries of node trips (they
# name versions of the table whose files expiry may delete) and no
# others, so the next run executes trips again.
#
#   expire_cache_test.sh BAUPLAN_BINARY SCRATCH_DIR
set -u
bp=$1
dir=$2
lake=$dir/lake
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

rm -rf "$dir" && mkdir -p "$dir" || fail "cannot make $dir"
"$bp" --lake "$lake" init-demo --rows 2000 >/dev/null || fail "init-demo"
"$bp" --lake "$lake" run --project "${lake}_demo_project" >/dev/null ||
  fail "the first run"
[ -n "$(ls "$lake/cache/trips" 2>/dev/null)" ] || fail "no entry for trips"
"$bp" --lake "$lake" expire -t trips >/dev/null || fail "expire"
[ -z "$(ls "$lake/cache/trips" 2>/dev/null)" ] ||
  fail "expire left entries for trips"
[ -n "$(ls "$lake/cache/pickups" 2>/dev/null)" ] ||
  fail "expire dropped the entries of pickups"
"$bp" --lake "$lake" run --project "${lake}_demo_project" >"$dir/run.out" ||
  fail "the second run"
grep -q '^  trips .*rows=[0-9]*$' "$dir/run.out" ||
  fail "the second run served trips from the cache: $(cat "$dir/run.out")"
echo "expire dropped trips' entries only"
