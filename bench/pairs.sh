#!/usr/bin/env bash
# Alternating-pair comparison of two builds of the perfbench executable:
#
#   bench/pairs.sh A.exe B.exe WORKLOAD N SECONDS
#
# Runs pair i (i = 1..N) on seed i: A and B each run once with
# `--workload WORKLOAD --seed i --seconds SECONDS --trace 0`, A first on
# odd seeds and B first on even ones, so a slow drift of the machine
# hits both sides alike.  Each run's last stdout line is its result;
# the script stops with exit 1 when a run fails or its result is not
# `"correct": true`.
#
# For every end-to-end metric BENCHMARK.json declares that the results
# carry, it prints one row: the median [lower quartile, upper quartile]
# of A and of B, the change of B's median against A's, and in how many
# pairs B beat A in the metric's better direction.  Quartiles
# interpolate linearly between order statistics.  Last, it prints each
# side's median number of passes per run (untraced + traced, from the
# run's `N untraced + M traced passes` line): perfbench keeps every
# pass's answers, so peak_rss_mb grows with the pass count, and a
# faster side runs more passes in the same seconds.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 A.exe B.exe WORKLOAD N SECONDS" >&2
  exit 2
fi
A=$1 B=$2 WORKLOAD=$3 N=$4 SECONDS_PER_RUN=$5
SPEC="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

run() { # side exe seed
  local out line
  out=$("$2" --workload "$WORKLOAD" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0)
  line=$(printf '%s\n' "$out" | tail -n 1)
  case $line in
    *'"correct": true'*) echo "$line" >> "$TMP/$1" ;;
    *)
      echo "pairs: $1 ($2) seed $3 is not correct: $line" >&2
      exit 1
      ;;
  esac
  printf '%s\n' "$out" |
    sed -n 's/.* \([0-9][0-9]*\) untraced + \([0-9][0-9]*\) traced passes.*/\1 \2/p' |
    awk 'NR == 1 { print $1 + $2 }' >> "$TMP/$1.passes"
}

median() { # file of numbers, one a line
  sort -n "$1" | awk '{ x[NR] = $1 } END { print (NR % 2) ? x[(NR + 1) / 2] : (x[NR / 2] + x[NR / 2 + 1]) / 2 }'
}

for seed in $(seq 1 "$N"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run A "$A" "$seed"
    run B "$B" "$seed"
  else
    run B "$B" "$seed"
    run A "$A" "$seed"
  fi
done

awk -v workload="$WORKLOAD" -v n="$N" -v secs="$SECONDS_PER_RUN" '
  # BENCHMARK.json: the end_to_end entries name each metric and its
  # better direction
  FILENAME == ARGV[1] {
    if ($0 ~ /"end_to_end"/) inside = 1
    else if (inside && $0 ~ /^[ \t]*\]/) inside = 0
    else if (inside && match($0, /"name": *"[^"]*"/)) {
      name = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", name); sub(/"$/, "", name)
      order[++metrics] = name
      better[name] = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
    }
    next
  }
  # result lines: one per seed, A then B
  {
    side = (FILENAME == ARGV[2]) ? "A" : "B"
    row = ++rows[side]
    if (match($0, /"failed": *[0-9]+/)) { f = substr($0, RSTART, RLENGTH); sub(/.*: */, "", f); failed[side] += f }
    if (match($0, /"attempted": *[0-9]+/)) { t = substr($0, RSTART, RLENGTH); sub(/.*: */, "", t); attempted[side] += t }
    rest = $0
    while (match(rest, /"[a-z0-9_.]+": *\{"value": *[-+0-9.eE]+/)) {
      kv = substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
      key = kv; sub(/^"/, "", key); sub(/".*/, "", key)
      val = kv; sub(/.*"value": */, "", val)
      v[side, key, row] = val + 0
      seen[key] = 1
    }
  }
  function sorted(side, key,    i, j, x) {
    for (i = 1; i <= n; i++) s[i] = v[side, key, i]
    for (i = 2; i <= n; i++) {
      x = s[i]
      for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
      s[j + 1] = x
    }
  }
  function q(p,    h, lo) {
    h = (n - 1) * p + 1; lo = int(h)
    return (lo >= n) ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
  }
  function summary(side, key) {
    sorted(side, key)
    med[side] = q(0.5)
    return sprintf("%.4g [%.4g, %.4g]", q(0.5), q(0.25), q(0.75))
  }
  END {
    if (rows["A"] != n || rows["B"] != n) { print "pairs: missing result lines" > "/dev/stderr"; exit 1 }
    printf "pairs %s: %d alternating pairs, seeds 1..%d, %s s per run\n", workload, n, n, secs
    printf "failed: A %d/%d, B %d/%d\n", failed["A"], attempted["A"], failed["B"], attempted["B"]
    printf "%-16s %-7s %-32s %-32s %9s  %s\n", "metric", "better", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins"
    for (m = 1; m <= metrics; m++) {
      key = order[m]
      if (!(key in seen)) continue
      a = summary("A", key); b = summary("B", key)
      change = (med["A"] != 0) ? sprintf("%+.1f%%", 100 * (med["B"] - med["A"]) / med["A"]) : "n/a"
      wins = 0
      for (i = 1; i <= n; i++) {
        d = v["B", key, i] - v["A", key, i]
        if ((better[key] == "higher" && d > 0) || (better[key] == "lower" && d < 0)) wins++
      }
      printf "%-16s %-7s %-32s %-32s %9s  %d/%d\n", key, better[key], a, b, change, wins, n
    }
  }
' "$SPEC" "$TMP/A" "$TMP/B"

if [ -s "$TMP/A.passes" ] && [ -s "$TMP/B.passes" ]; then
  echo "passes per run: A median $(median "$TMP/A.passes"), B median $(median "$TMP/B.passes")"
else
  echo "passes per run: not reported"
fi
