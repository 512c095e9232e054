#!/usr/bin/env bash
# Build the benchmark from source and run it (see perfbench/README.md):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
