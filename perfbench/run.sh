#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to _build/ inside the checkout, with dune's shared
# cache off so nothing is written outside it.  A failed build exits
# non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
