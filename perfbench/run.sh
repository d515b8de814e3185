#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run one workload.
#
#   bash perfbench/run.sh --workload offline-dense --seed 1 --seconds 25 --trace 0
#
# Run from the repository root.  Build output goes to standard error, so
# the last line of standard output is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . --display quiet --cache=disabled ./perfbench/bin/main.exe >&2
exec ./_build/default/perfbench/bin/main.exe "$@"
