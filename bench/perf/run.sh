#!/usr/bin/env bash
# The repository benchmark's entry point.  From the repository root:
#
#   bash bench/perf/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#
# builds bench/perf/perf.exe and the nimbled daemon from source with
# dune, then runs `perf.exe run` with the given arguments (see
# bench/perf/README.md).  Build output goes to stderr; the last line of
# stdout is the results object.
set -u
cd "$(dirname "$0")/../.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# keep every file the build writes inside the checkout
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/.perf/cache"
dune build --root . --display quiet bench/perf/perf.exe bin/nimbled.exe >&2 || exit 1
exec ./_build/default/bench/perf/perf.exe run "$@" --nimbled _build/default/bin/nimbled.exe
