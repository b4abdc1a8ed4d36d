#!/usr/bin/env bash
# Build ecnbench from the sources of this checkout, then run it with the
# given arguments. Run from anywhere inside the repository, e.g.
#
#   bash bench/e2e/run.sh --workload shuffle --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh --seed 1 --out ecnbench.json
#
# The build lives in .bench_build/ecnbench at the repository root; the
# first call configures and compiles (a few minutes), later calls only
# check that it is up to date. Build output goes to stderr so stdout
# carries nothing but the benchmark's own output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "ecnbench: no ecnsim sources at $root (CMakeLists.txt and src/ are missing)" >&2
  exit 2
fi

build="$root/.bench_build/ecnbench"
mkdir -p "$build/tmp"
# Keep the compiler's temporary files inside the checkout.
export TMPDIR="$build/tmp"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
cmake --build "$build" --target ecnbench -j "$jobs" >&2

exec "$build/ecnbench" "$@"
