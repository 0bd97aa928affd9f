#!/bin/sh
# CLI smoke test: list, map, and fault-aware sim with deadline+fallback.
# Usage: smoke.sh <path-to-ocgra> <path-to-SERVE_STREAM.jsonl> <path-to-bench/main.exe>
set -eu
# (a negated "! cmd" never trips set -e, so negative checks use if)
OCGRA="$1"
STREAM="$2"
# absolute, so it still resolves from the temporary directory it runs in
BENCH="$(cd "$(dirname "$3")" && pwd)/$(basename "$3")"
# the alternating-pair script, in bench/ beside this script's directory
PAIRS="$(cd "$(dirname "$0")/.." && pwd)/bench/pairs.sh"
# committed serve inputs and goldens, in serve/ beside this script
GOLD="$(cd "$(dirname "$0")" && pwd)/serve"
# committed exact-mapper goldens on faulted arrays, in sat/ beside it
SATGOLD="$(cd "$(dirname "$0")" && pwd)/sat"

"$OCGRA" list | grep -q "modulo-greedy"

"$OCGRA" map -k fir4 -m modulo-greedy | grep -q "mapped:"

# the headline robustness path: two injected faults, a wall-clock
# budget, and a three-tier fallback chain; must end in a verified run
"$OCGRA" sim -k fir4 -m sat --faults 2 --fault-seed 7 --deadline 5 \
  --fallback sat,modulo-greedy,constructive \
  | grep -q "matches the reference interpreter"

# TMR hardening + a small reliability campaign: the hardened mapping
# must still verify against the unhardened reference, and the report
# must include the campaign, the unhardened baseline and the overhead
OUT=$("$OCGRA" sim -k saxpy -m modulo-greedy --harden tmr --campaign 20 \
  --fault-rate 0.002 --fault-seed 11)
echo "$OUT" | grep -q "hardening: tmr"
echo "$OUT" | grep -q "matches the reference interpreter"
echo "$OUT" | grep -q "campaign (tmr"
echo "$OUT" | grep -q "baseline (none"
echo "$OUT" | grep -q "hardening overhead:"

# portfolio racing: the same fallback chain raced across domains must
# still end in a validated mapping, and the note must say who won
"$OCGRA" map -k fir4 --fallback sat,modulo-greedy --jobs 2 --deadline 10 \
  | grep -q "race won by tier"

# parallel reliability campaign: the report must be byte-identical to
# the sequential one (seeds are pre-drawn, fold order is fixed)
SEQ=$("$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20 \
  --fault-rate 0.002 --fault-seed 11 --jobs 1 | grep "campaign (")
PAR=$("$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20 \
  --fault-rate 0.002 --fault-seed 11 --jobs 2 | grep "campaign (")
[ "$SEQ" = "$PAR" ]

# an impossible fault load must fail cleanly (exit 0 + explanation),
# never crash or report an invalid mapping as success
"$OCGRA" map -k fir4 --rows 2 --cols 2 --faults 4 --fault-seed 3 --deadline 2 \
  --fallback modulo-greedy,constructive \
  | grep -q "mapping failed"

# observability: --trace must produce a parseable Chrome trace with at
# least one tier span, and --metrics must carry live engine counters
TMPD=$(mktemp -d)
trap 'rm -rf "$TMPD"' EXIT
"$OCGRA" map -k dot-product --fallback constructive,modulo-greedy --jobs 1 \
  --trace "$TMPD/trace.json" --metrics "$TMPD/metrics.json" | grep -q "mapped:"
python3 -m json.tool "$TMPD/trace.json" > /dev/null
grep -q '"tier:' "$TMPD/trace.json"
python3 -m json.tool "$TMPD/metrics.json" > /dev/null
grep -q '"mapper.runs"' "$TMPD/metrics.json"
# ... and so must a raced run, whose tiers trace from worker domains
"$OCGRA" map -k fir4 --fallback constructive,modulo-greedy --jobs 2 --deadline 30 \
  --trace "$TMPD/race-trace.json" --metrics "$TMPD/race-metrics.json" | grep -q "mapped:"
python3 -m json.tool "$TMPD/race-trace.json" > /dev/null
grep -q '"tier:' "$TMPD/race-trace.json"
python3 -m json.tool "$TMPD/race-metrics.json" > /dev/null

# determinism: two identical single-worker runs of the same seed must
# dump byte-identical metrics (integer counters only, name-sorted)
"$OCGRA" map -k dot-product -m modulo-greedy --seed 9 --jobs 1 \
  --metrics "$TMPD/m1.metrics" > /dev/null
"$OCGRA" map -k dot-product -m modulo-greedy --seed 9 --jobs 1 \
  --metrics "$TMPD/m2.metrics" > /dev/null
cmp "$TMPD/m1.metrics" "$TMPD/m2.metrics"

# the greedy place-and-route work counts of one map are pinned exactly
# (fir4 on the default 4x4 mesh, seed 42): attempts, candidate
# (PE, cycle) slots built, nodes placed, candidates rejected by the
# in-edge reachability fields and router searches (those fields
# included) all move with any change to the candidate order, the RNG
# draws or the router
"$OCGRA" map -k fir4 -m modulo-greedy --jobs 1 --metrics "$TMPD/greedy.metrics" \
  | grep -q "mapped:"
for kv in constructive.attempts=36 constructive.candidates=33824 \
  constructive.placements=267 constructive.pruned=1594 route.searches=952; do
  if ! grep -qx "$kv" "$TMPD/greedy.metrics"; then
    echo "fir4 modulo-greedy: want $kv, got $(grep "^${kv%%=*}=" "$TMPD/greedy.metrics")" >&2
    exit 1
  fi
done

# PathFinder's negotiation work on one map is pinned the same way
# (fir4 with dresc-sa, whose bindings are routed by Pathfinder.route_all):
# iterations and rip-up sizes move with any change to the router's
# prices or tie-breaking
"$OCGRA" map -k fir4 -m dresc-sa --jobs 1 --metrics "$TMPD/pf.metrics" \
  | grep -q "mapped: II=4"
for kv in pathfinder.iterations=40 pathfinder.ripup.count=40 \
  pathfinder.ripup.sum=600 pathfinder.ripup.max=15 pathfinder.overuse.sum=3; do
  if ! grep -qx "$kv" "$TMPD/pf.metrics"; then
    echo "fir4 dresc-sa: want $kv, got $(grep "^${kv%%=*}=" "$TMPD/pf.metrics")" >&2
    exit 1
  fi
done

# the negotiating repair path is pinned the same way: a route-only
# repair of a dresc-sa mapping (two negotiation rounds on top of the
# map's twenty) and a re-place repair of a modulo-greedy one; their
# repair.* and pathfinder.* counters move with any change to the
# frozen ledger, the rungs' rip-up sets or the router's prices
while IFS='|' read -r args rung kvs; do
  # shellcheck disable=SC2086
  "$OCGRA" map $args --jobs 1 --metrics "$TMPD/rp.metrics" | grep -q "repaired ($rung)"
  for kv in $kvs; do
    if ! grep -qx "$kv" "$TMPD/rp.metrics"; then
      echo "map $args: want $kv, got $(grep "^${kv%%=*}=" "$TMPD/rp.metrics")" >&2
      exit 1
    fi
  done
done <<'EOF'
-k moving-avg3 -m dresc-sa --repair 4 --fault-seed 2|route-only|pathfinder.iterations=22 pathfinder.ripup.sum=142 pathfinder.overuse.sum=1 repair.diagnosed=1 repair.ripped=1 repair.rerouted=1
-k iir2 -m modulo-greedy --repair 8 --fault-seed 2|re-place|pathfinder.iterations=1 pathfinder.ripup.sum=2 pathfinder.overuse.sum=0 repair.diagnosed=3 repair.displaced=1 repair.ripped=2 repair.rerouted=2
EOF

# event-log determinism: the structured event log of a fixed-seed
# campaign (tier verdicts, trial outcomes, closing summary) must be
# byte-identical whatever the worker count — events are emitted
# post-hoc from trial-indexed arrays, never from inside the domains
"$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20 --fault-rate 0.002 \
  --fault-seed 11 --jobs 1 --events "$TMPD/e1.jsonl" > /dev/null
"$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20 --fault-rate 0.002 \
  --fault-seed 11 --jobs 2 --events "$TMPD/e2.jsonl" > /dev/null
cmp "$TMPD/e1.jsonl" "$TMPD/e2.jsonl"
grep -q '"ev":"campaign.done"' "$TMPD/e1.jsonl"
grep -q '"ev":"campaign.trial"' "$TMPD/e1.jsonl"

# the SAT sweep must leave per-II convergence events and its LBD
# distribution behind when asked (running-max 2x2: the bound probe
# misses at II=2, so the solver runs)
"$OCGRA" map -k running-max -m sat --rows 2 --cols 2 --seed 9 --jobs 1 \
  --metrics "$TMPD/sat.metrics" --events "$TMPD/sat.jsonl" | grep -q "mapped:"
grep -q '"ev":"sat.ii"' "$TMPD/sat.jsonl"
grep -q 'sat.lbd.count=' "$TMPD/sat.metrics"
# the conflict count alone would miss a change to the LBD or trail
# bookkeeping of conflict analysis, so its sums are pinned exactly too
for kv in sat.conflicts=383 sat.lbd.sum=3315 sat.trail_depth.sum=180352 \
  sat.props_per_decision.sum=34488; do
  if ! grep -qx "$kv" "$TMPD/sat.metrics"; then
    echo "running-max 2x2 --seed 9: want $kv, got $(grep "^${kv%%=*}=" "$TMPD/sat.metrics")" >&2
    exit 1
  fi
done
# the cold sweep builds a fresh solver per II, so its histograms are
# the deltas of two instances that each start from zero
"$OCGRA" map -k running-max -m sat-cold --rows 2 --cols 2 --seed 9 \
  --metrics "$TMPD/sat-cold.metrics" | grep -q "mapped:"
for kv in sat.conflicts=467 sat.lbd.sum=3993 sat.trail_depth.sum=226176 \
  sat.props_per_decision.sum=40794; do
  if ! grep -qx "$kv" "$TMPD/sat-cold.metrics"; then
    echo "running-max 2x2 sat-cold --seed 9: want $kv, got $(grep "^${kv%%=*}=" "$TMPD/sat-cold.metrics")" >&2
    exit 1
  fi
done
# fabric symmetry breaking: one sat.symmetry event for the shared
# instance (the 2x2 mesh's 8 dihedral maps leave one corner to pin
# to), its pruned literals counted, and the log byte-identical at
# another worker count
[ "$(grep -c '"ev":"sat.symmetry".*"order":8,"v0":[0-9]*,"kept":1' "$TMPD/sat.jsonl")" = 1 ]
grep -q '^sat.sym_pruned=[1-9]' "$TMPD/sat.metrics"
"$OCGRA" map -k running-max -m sat --rows 2 --cols 2 --seed 9 --jobs 2 \
  --events "$TMPD/sat2.jsonl" > /dev/null
cmp "$TMPD/sat.jsonl" "$TMPD/sat2.jsonl"

# supervised chaos: injected task failures at 10% with retries must be
# fully masked — the campaign line is byte-identical to the clean run,
# and the supervision counters show the retries actually happened
CLEAN=$("$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20 \
  --fault-rate 0.002 --fault-seed 11 --jobs 4 | grep "campaign (")
CHAOS=$("$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20 \
  --fault-rate 0.002 --fault-seed 11 --jobs 4 --chaos 0.1 --retries 3 \
  --metrics "$TMPD/chaos.json" | grep "campaign (")
[ "$CLEAN" = "$CHAOS" ]
grep -q '"supervise.retries"' "$TMPD/chaos.json"
grep -q '"chaos.failures"' "$TMPD/chaos.json"

# crash-safe checkpointing: SIGKILL a journaled campaign mid-run, then
# --resume must replay the journal, finish the remainder and reproduce
# the byte-identical report of an uninterrupted run
REF=$("$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20000 \
  --fault-rate 0.002 --fault-seed 11 --jobs 2 | grep "campaign (")
"$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20000 \
  --fault-rate 0.002 --fault-seed 11 --jobs 2 \
  --checkpoint "$TMPD/campaign.jsonl" > /dev/null 2>&1 &
CPID=$!
sleep 0.6
kill -9 "$CPID" 2> /dev/null || true
wait "$CPID" 2> /dev/null || true
RES=$("$OCGRA" sim -k saxpy -m modulo-greedy --campaign 20000 \
  --fault-rate 0.002 --fault-seed 11 --jobs 2 \
  --checkpoint "$TMPD/campaign.jsonl" --resume | grep "campaign (")
[ "$REF" = "$RES" ]

# graceful degradation: saxpy under an escalating seeded fault
# sequence must walk down the certified repair ladder — every step
# either certified ("repaired (<rung>)") or an explicit failure, never
# an uncertified mapping; the survivor summary must name the walk
SURV=$("$OCGRA" sim -k saxpy -m modulo-greedy --survivor 10 --fault-seed 1)
echo "$SURV" | grep -q "matches the reference interpreter"
echo "$SURV" | grep -q "survived"
if echo "$SURV" | grep -q "UNCERTIFIED"; then
  echo "survival walk has an uncertified step" >&2
  exit 1
fi
if echo "$SURV" | grep -q "REPLAY MISMATCH"; then
  echo "survival walk has a replay mismatch" >&2
  exit 1
fi
# the ladder degrades gracefully: at least one step is salvaged by a
# cheap rung (untouched/route-only/re-place/ii-bump), not all fallback
echo "$SURV" | grep -Eq "repaired \((untouched|route-only|re-place|ii-bump)\)"

# incremental SAT sweep vs its cold baseline: both mappers must map
# the same multi-attempt sweep (optimal II > MII on a 2x2, and no
# presolve rule refutes running-max's II=2) to the same
# certified-optimal II, and the sweep must report a real elapsed time
INC=$("$OCGRA" map -k running-max -m sat --rows 2 --cols 2)
COLD=$("$OCGRA" map -k running-max -m sat-cold --rows 2 --cols 2)
echo "$INC" | grep -q "II=3"
echo "$COLD" | grep -q "II=3"
echo "$INC" | grep -q "II optimal"
echo "$INC" | grep -q "2 attempts"
# an empty mapper note leaves no dangling separator
echo "$INC" | grep "^mapped:" | grep -q "(2 attempts)$"
if echo "$INC" | grep -q "in 0.00s"; then
  echo "incremental sweep reported no elapsed time" >&2
  exit 1
fi

# structural presolve: absdiff's II=2 on a 2x2 is refuted by the slot
# count before the solver runs, so one attempt proves II=3 and the note
# names the certificate; on the 4x4 the neighbourhood rule refutes II=1
# and the optimum II=2 is proven within seconds
PRE=$("$OCGRA" map -k absdiff -m sat --rows 2 --cols 2)
echo "$PRE" | grep -q "II=3"
echo "$PRE" | grep -q "II optimal"
echo "$PRE" | grep -q "1 attempts"
echo "$PRE" | grep -q "presolve: II=2 refuted by slot count 9 > 8 \[fu-hop\]"
timeout 10 "$OCGRA" map -k absdiff -m sat | grep -q "II optimal"

# bound probe: fir4 4x4 maps by decoupled FU-hop binding at the
# presolve's lower bound II=2, so the optimum is proven with no solver
# call at all
BOUND=$(timeout 2 "$OCGRA" map -k fir4 -m sat --events "$TMPD/bound.jsonl")
echo "$BOUND" | grep -q "II=2"
echo "$BOUND" | grep -q "II optimal"
echo "$BOUND" | grep -q "1 attempts"
grep -q '"ev":"sat.bound"' "$TMPD/bound.jsonl"
if grep -q '"ev":"sat.ii"' "$TMPD/bound.jsonl"; then
  echo "fir4 4x4 bound-probe hit still called the solver" >&2
  exit 1
fi

# embedding rule: matvec2's 9 ops fill the 3x3 at II=1 and its DFG does
# not embed in the mesh, so II=1 is refuted without the solver; the
# bound probe then maps II=2 and no solver call is made
EMB=$(timeout 2 "$OCGRA" map -m sat -k matvec2 --rows 3 --cols 3 --events "$TMPD/emb.jsonl")
echo "$EMB" | grep -q "II=2"
echo "$EMB" | grep -q "II optimal"
echo "$EMB" | grep -q "presolve: II=1 refuted by embedding: 9 ops fill 9 slots"
[ "$(grep -c '"ev":"sat.presolve".*"rule":"embedding"' "$TMPD/emb.jsonl")" = 1 ]
[ "$(grep -c '"ev":"sat.bound".*"hit":1' "$TMPD/emb.jsonl")" = 1 ]
if grep -q '"ev":"sat.ii"' "$TMPD/emb.jsonl"; then
  echo "matvec2 3x3 embedding refutation still called the solver" >&2
  exit 1
fi

# a modulo mapper handed a spatial problem fails cleanly with no
# attempt (exit 0, no uncaught exception), and the daemon rejects such
# a request with the tier's note instead of quarantining the cold map
"$OCGRA" map -k saxpy -m dresc-sa --spatial | grep -q "mapping failed after 0 attempts"
echo '{"id":"sp","kernel":"saxpy","spatial":true}' > "$TMPD/spatial.jsonl"
"$OCGRA" serve --in "$TMPD/spatial.jsonl" --out "$TMPD/spatial-resp.jsonl" \
  --mapper dresc-sa > /dev/null
grep -q '"status":"rejected"' "$TMPD/spatial-resp.jsonl"
if grep -q "quarantined" "$TMPD/spatial-resp.jsonl"; then
  echo "dresc-sa on a spatial request was quarantined" >&2
  exit 1
fi

# mapping-as-a-service: a stream with duplicates, an isomorphic
# renaming (saxpy with nodes listed backwards) and a grown fault mask
# must be served through the cache — hits, an iso-hit and a
# repair-or-remap — and every response line must be well-formed JSON
cat > "$TMPD/stream.jsonl" <<'EOF'
{"id":"s1","kernel":"saxpy"}
{"id":"s2","kernel":"saxpy"}
{"id":"iso","dfg":{"nodes":[{"op":"out y","name":"y"},{"op":"add"},{"op":"mul"},{"op":"in y","name":"y"},{"op":"in x","name":"x"},{"op":"const 7"}],"edges":[[5,2,0,0],[4,2,1,0],[2,1,0,0],[3,1,1,0],[1,0,0,0]]}}
{"id":"f2","kernel":"saxpy","n_faults":2,"fault_seed":3}
{"id":"f4","kernel":"saxpy","n_faults":4,"fault_seed":3}
EOF
"$OCGRA" serve --in "$TMPD/stream.jsonl" --out "$TMPD/resp.jsonl" --batch 1 \
  | grep -q "serve: 5 requests"
python3 - "$TMPD/resp.jsonl" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
assert [r["id"] for r in rows] == ["s1", "s2", "iso", "f2", "f4"], rows
assert rows[1]["served"] == "hit", rows[1]
assert rows[2]["served"] == "iso-hit", rows[2]
assert all(r["status"] == "ok" for r in rows), rows
EOF

# the committed request stream replays through the daemon (the serve
# bench's batching, worker count and mapper): every request is answered
# ok with a certified mapping
"$OCGRA" serve --in "$STREAM" --out "$TMPD/committed.jsonl" --batch 8 --jobs 4 \
  --mapper modulo-greedy > /dev/null
[ "$(grep -c '"status":"ok".*"certified":true' "$TMPD/committed.jsonl")" = "$(grep -c . "$STREAM")" ]

# serve determinism: the response file and the structured event log
# must be byte-identical whatever --jobs says — classification is
# sequential, cold maps run single-worker races in private forks
# absorbed in a fixed order, and neither artifact carries wall-clock
"$OCGRA" serve --in "$TMPD/stream.jsonl" --out "$TMPD/r1.jsonl" --batch 2 \
  --jobs 1 --events "$TMPD/se1.jsonl" > /dev/null
"$OCGRA" serve --in "$TMPD/stream.jsonl" --out "$TMPD/r4.jsonl" --batch 2 \
  --jobs 4 --events "$TMPD/se4.jsonl" > /dev/null
cmp "$TMPD/r1.jsonl" "$TMPD/r4.jsonl"
cmp "$TMPD/se1.jsonl" "$TMPD/se4.jsonl"
grep -q '"ev":"svc.request"' "$TMPD/se1.jsonl"
grep -q '"ev":"svc.batch"' "$TMPD/se1.jsonl"

# one set of service counters: the summary line's tallies are the
# svc.* counters the --metrics dump carries (absent = 0)
"$OCGRA" serve --in "$TMPD/stream.jsonl" --out "$TMPD/rm.jsonl" --batch 2 \
  --metrics "$TMPD/serve.json" > "$TMPD/serve.summary"
python3 - "$TMPD/serve.summary" "$TMPD/serve.json" <<'EOF'
import json, re, sys
line = open(sys.argv[1]).read()
m = re.search(r"(\d+) hits \+ (\d+) iso \+ (\d+) repair / (\d+) cold, (\d+) rejected.*"
              r" (\d+) coalesced, (\d+) demotions", line)
assert m, line
metrics = json.load(open(sys.argv[2]))
keys = ["hits", "iso_hits", "repair_hits", "misses", "rejections", "coalesced", "demotions"]
got = {k: metrics.get("svc." + k, 0) for k in keys}
assert got == dict(zip(keys, map(int, m.groups()))), (line, got)
assert got["coalesced"] > 0, got
EOF

# out-of-range numbers and unknown names are usage errors: never a
# hang (a zero batch size used to loop forever) and never an uncaught
# exception.  Each case is "arguments|message"; cmdliner wraps long
# messages, so whitespace is squeezed before matching
while IFS='|' read -r bad msg; do
  if timeout 10 "$OCGRA" $bad > /dev/null 2> "$TMPD/usage.err"; then
    echo "$bad should exit nonzero" >&2
    exit 1
  fi
  tr -s ' \n' '  ' < "$TMPD/usage.err" | grep -q "$msg"
  if grep -qi "uncaught exception" "$TMPD/usage.err"; then
    echo "$bad crashed" >&2
    exit 1
  fi
done <<EOF
serve --in $TMPD/stream.jsonl --batch 0|below the minimum
serve --in $TMPD/stream.jsonl --retries=-1|below the minimum
serve --in $TMPD/stream.jsonl --cache 0|below the minimum
serve --in $TMPD/stream.jsonl --mapper no-such-mapper|names an unknown mapper; valid: greedy-spatial
map --rows=0|below the minimum 1
map --cols=-2|below the minimum 1
arch --faults=-1|below the minimum 0
sim --iters=-1|below the minimum 0
sim --campaign=-1|below the minimum 0
map --repair=-1|below the minimum 0
sim --survivor=-1|below the minimum 0
map --jobs=-1|below the minimum 0
sim --harden bogus|expected one of 'none', 'dmr' or 'tmr'
map -k no-such-kernel|names an unknown kernel; valid: dot-product
map -m no-such-mapper|names an unknown mapper; valid: greedy-spatial
map -m sat,modulo-greedy|names an unknown mapper; valid: greedy-spatial
map --fallback ,|names an unknown mapper; valid: greedy-spatial
map --fallback sat,no-such-mapper|names an unknown mapper; valid: greedy-spatial
sim --fallback no-such-mapper|names an unknown mapper; valid: greedy-spatial
arch --topology hexagonal|names an unknown topology; valid: mesh, torus
map --deadline=nan|nan is not a finite number above 0
map --deadline=-1|'--deadline': -1 is not a finite number above 0
serve --in $TMPD/stream.jsonl --deadline=0|0 is not a finite number above 0
sim --fault-rate=-0.5|'--fault-rate': -0.5 is not a probability in \[0, 1\]
sim --fault-rate=2|2 is not a probability in \[0, 1\]
sim --fault-rate=nan|nan is not a probability in \[0, 1\]
sim --chaos=1.5|1.5 is not a probability in \[0, 1\]
report --against $TMPD/stream.jsonl --tol-time=-1|'--tol-time': -1 is not a finite number of at least 0
EOF

# malformed request lines (a bad \u escape included) get a per-line
# error response and a nonzero exit — the daemon must never crash on
# bad input, and must still serve the well-formed lines around it
if "$OCGRA" serve --in "$GOLD/badstream.jsonl" --out "$TMPD/bad.jsonl" > /dev/null; then
  echo "serve should exit nonzero on malformed input" >&2
  exit 1
fi
python3 - "$TMPD/bad.jsonl" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
assert [r["status"] for r in rows] == ["ok", "error", "error", "ok", "error"], rows
assert rows[1]["id"] == "line-2", rows[1]
assert rows[4]["id"] == "line-5", rows[4]
assert rows[3]["served"] == "hit", rows[3]
EOF

# one line reader: stdin and --in skip the same blank and
# whitespace-only lines, and an error names its line by physical
# position (the malformed line below is line 4)
printf '%s\n\n \t \n%s\n%s\n' '{"id":"b1","kernel":"saxpy"}' '{"id":' \
  '{"id":"b2","kernel":"saxpy"}' > "$TMPD/blank.jsonl"
if "$OCGRA" serve --mapper modulo-greedy --out "$TMPD/blank-stdin.jsonl" \
  < "$TMPD/blank.jsonl" > /dev/null; then
  echo "serve should exit nonzero on malformed input" >&2
  exit 1
fi
if "$OCGRA" serve --mapper modulo-greedy --in "$TMPD/blank.jsonl" \
  --out "$TMPD/blank-in.jsonl" > /dev/null; then
  echo "serve should exit nonzero on malformed input" >&2
  exit 1
fi
cmp "$TMPD/blank-stdin.jsonl" "$TMPD/blank-in.jsonl"
[ "$(wc -l < "$TMPD/blank-in.jsonl")" -eq 3 ]
grep -q '^{"id":"line-4","status":"error"' "$TMPD/blank-in.jsonl"

# byte-identical serving: the responses and event logs of the
# committed request stream (the serve bench's flags) and of the
# malformed stream equal the committed goldens at one and at four
# workers; neither artifact carries wall clock.  A change that means
# to move an answer re-records them (see the goldens' README)
for j in 1 4; do
  "$OCGRA" serve --in "$STREAM" --out "$TMPD/gold-r$j.jsonl" --events "$TMPD/gold-e$j.jsonl" \
    --batch 8 --jobs "$j" --mapper modulo-greedy > /dev/null
  cmp "$GOLD/stream.responses.jsonl" "$TMPD/gold-r$j.jsonl"
  cmp "$GOLD/stream.events.jsonl" "$TMPD/gold-e$j.jsonl"
  if "$OCGRA" serve --in "$GOLD/badstream.jsonl" --out "$TMPD/gold-br$j.jsonl" \
    --events "$TMPD/gold-be$j.jsonl" --jobs "$j" > /dev/null; then
    echo "serve should exit nonzero on malformed input" >&2
    exit 1
  fi
  cmp "$GOLD/badstream.responses.jsonl" "$TMPD/gold-br$j.jsonl"
  cmp "$GOLD/badstream.events.jsonl" "$TMPD/gold-be$j.jsonl"
done

# the exact engines on faulted 3x3 arrays (downed PEs, dead FU slots
# and a shrunken register file between them): the printed mapping and
# the event log of `map -m sat` and `-m iso-binding` equal the
# committed goldens.  The summary line's wall time is masked;
# everything else is deterministic.  Re-record with the commands in
# sat/README.md
while read -r k n s; do
  for m in sat iso-binding; do
    f="$k-3x3-faults-$n-seed-$s.$m"
    "$OCGRA" map -k "$k" -m "$m" --rows 3 --cols 3 --faults "$n" --fault-seed "$s" \
      --events "$TMPD/$f.events.jsonl" < /dev/null | sed 's/ in [0-9.]*s / in -s /' > "$TMPD/$f.out"
    cmp "$SATGOLD/$f.out" "$TMPD/$f.out"
    cmp "$SATGOLD/$f.events.jsonl" "$TMPD/$f.events.jsonl"
  done
done <<EOF
running-max 3 12
mix-round 2 11
matvec2 3 10
EOF

# the bench refuses an unknown argument (--help included) before it
# writes anything: it must exit nonzero and leave no BENCH_*.json in
# the directory it ran in
mkdir "$TMPD/bench"
if (cd "$TMPD/bench" && timeout 20 "$BENCH" --help > /dev/null 2> "$TMPD/bench.err"); then
  echo "bench --help should exit nonzero" >&2
  exit 1
fi
grep -q "sat-sweep-only" "$TMPD/bench.err"
if ls "$TMPD/bench" | grep -q '^BENCH_.*\.json$'; then
  echo "bench --help wrote a snapshot" >&2
  exit 1
fi

# incremental repair on the map path: degrading after mapping must
# certify through a rung and print the diagnosis
"$OCGRA" map -k saxpy -m modulo-greedy --repair 6 --fault-seed 1 \
  | grep -q "repaired:"

# repair determinism: same diagnosis, same rung, same repaired grid,
# whatever OCGRA_JOBS says (wall-clock times are the only variance)
R1=$(OCGRA_JOBS=1 "$OCGRA" map -k fir4 -m modulo-greedy --repair 8 --fault-seed 1)
R4=$(OCGRA_JOBS=4 "$OCGRA" map -k fir4 -m modulo-greedy --repair 8 --fault-seed 1)
norm_repair() { echo "$1" | grep -E '^(diagnosis|\|)'; echo "$1" | grep -oE 'repaired \([a-z-]+\)'; }
[ "$(norm_repair "$R1")" = "$(norm_repair "$R4")" ]

# bench/pairs.sh on stub benchmark executables: each stub logs its run
# order and prints a fixed result line per seed, so the summary's
# medians, quartiles, changes and win counts are known exactly
mkdir "$TMPD/pairs"
cat > "$TMPD/pairs/A.exe" <<'EOF'
#!/bin/sh
[ "$1 $2 $3 $5 $6 $7 $8" = "--workload wl --seed --seconds 1 --trace 0" ] || exit 3
side=$(basename "$0" .exe)
echo "$side $4" >> "$(dirname "$0")/order"
echo "a line before the result"
if [ "$side" = B ]; then untraced=$((6 + $4)); else untraced=$((2 + $4)); fi
echo "wl seed $4: $untraced untraced + 1 traced passes, 4 attempted, 0 failed"
case $side in
  A) echo "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"kernels_per_s\": {\"value\": 50, \"unit\": \"1/s\"}, \"compile_p50_ms\": {\"value\": $((10 + $4)), \"unit\": \"ms\"}}}" ;;
  B) echo "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"kernels_per_s\": {\"value\": $((49 + $4)), \"unit\": \"1/s\"}, \"compile_p50_ms\": {\"value\": $((9 + $4)), \"unit\": \"ms\"}}}" ;;
  *) echo "{\"correct\": false, \"attempted\": 4, \"failed\": 4, \"metrics\": {}}" ;;
esac
EOF
chmod +x "$TMPD/pairs/A.exe"
cp "$TMPD/pairs/A.exe" "$TMPD/pairs/B.exe"
cp "$TMPD/pairs/A.exe" "$TMPD/pairs/bad.exe"
bash "$PAIRS" "$TMPD/pairs/A.exe" "$TMPD/pairs/B.exe" wl 4 1 > "$TMPD/pairs/summary"
[ "$(tr '\n' ' ' < "$TMPD/pairs/order")" = "A 1 B 1 B 2 A 2 A 3 B 3 B 4 A 4 " ]
grep -q '^failed: A 0/16, B 4/16$' "$TMPD/pairs/summary"
grep -Eq '^kernels_per_s +higher +50 \[50, 50\] +51\.5 \[50\.75, 52\.25\] +\+3\.0% +3/4$' "$TMPD/pairs/summary"
grep -Eq '^compile_p50_ms +lower +12\.5 \[11\.75, 13\.25\] +11\.5 \[10\.75, 12\.25\] +-8\.0% +4/4$' "$TMPD/pairs/summary"
grep -q '^passes per run: A median 5.5, B median 9.5$' "$TMPD/pairs/summary"
# a result that is not "correct": true stops the comparison
if bash "$PAIRS" "$TMPD/pairs/A.exe" "$TMPD/pairs/bad.exe" wl 2 1 > /dev/null 2>&1; then
  echo "pairs.sh accepted an incorrect result" >&2
  exit 1
fi

echo "smoke OK"
