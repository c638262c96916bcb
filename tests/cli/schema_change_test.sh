#!/bin/sh
# A node's output columns may change from one run to the next: each run
# merges a fresh table version with the node's schema, `query` reads the
# current columns, and main@<time> still reads the earlier ones.
#
#   schema_change_test.sh BAUPLAN_BINARY SCRATCH_DIR
set -u
bp=$1
dir=$2
lake=$dir/lake
project=$dir/project
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

rm -rf "$dir" && mkdir -p "$dir" || fail "cannot make $dir"
"$bp" --lake "$lake" init-demo --rows 2000 >/dev/null || fail "init-demo"
cp -r "${lake}_demo_project" "$project" || fail "copy the demo project"

# Prints an instant after the newest commit on main, in epoch micros, once
# the wall clock has passed it. Each CLI process seeds its simulated clock
# from the wall clock, so every later commit is stamped after that instant.
settle() {
  iso=$("$bp" --lake "$lake" log -n 1 | awk '{print $2}')
  secs=$(date -u -d "$iso" +%s) || fail "cannot parse commit time '$iso'"
  while [ "$(date -u +%s)" -le $((secs + 1)) ]; do sleep 0.2; done
  echo $(((secs + 1) * 1000000))
}

# Prints the header line of `query` for trips at ref $1.
columns() {
  "$bp" --lake "$lake" query -q "SELECT * FROM trips LIMIT 1" -b "$1" |
    head -n 1
}

run() {
  "$bp" --lake "$lake" run --project "$project" >"$dir/run.out" 2>&1
  code=$?
  [ "$code" -eq 0 ] || { cat "$dir/run.out" >&2; fail "$1 exited $code"; }
}

original=$(cat "$project/trips.sql")
run "the first run"
first=$(settle)

printf '%s\n' "SELECT pickup_location_id, passenger_count AS count, \
dropoff_location_id, trip_distance FROM taxi_table \
WHERE pickup_at >= '2019-04-01'" >"$project/trips.sql"
run "the run that adds trip_distance"
second=$(settle)
columns main | grep -q trip_distance ||
  fail "trips lacks trip_distance after adding it: $(columns main)"

printf '%s\n' "$original" >"$project/trips.sql"
run "the run that drops trip_distance"
columns main | grep -q trip_distance &&
  fail "trips still has trip_distance after dropping it: $(columns main)"
columns main | grep -q dropoff_location_id ||
  fail "trips lost dropoff_location_id: $(columns main)"

columns "main@$first" | grep -q trip_distance &&
  fail "main@$first reads the added column: $(columns "main@$first")"
columns "main@$first" | grep -q dropoff_location_id ||
  fail "main@$first lost the first columns: $(columns "main@$first")"
columns "main@$second" | grep -q trip_distance ||
  fail "main@$second lacks trip_distance: $(columns "main@$second")"
echo "schema changes merged; as-of reads keep each run's columns"
