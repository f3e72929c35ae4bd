#!/usr/bin/env bash
# Perf-trajectory snapshot: runs the key benches in quick mode and
# writes a JSON object of named medians (seconds/iteration) so future
# PRs can diff perf numbers instead of quoting them in prose.
#
#   tools/bench-summary.sh OUT.json
#
# Relies on the criterion shim's MEMS_BENCH_QUICK / MEMS_BENCH_JSONL
# hooks (crates/criterion). Quick mode uses 3 samples per benchmark —
# good for trend lines, not for microbenchmark publication.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT.json" >&2
  exit 2
fi
out="$1"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

MEMS_BENCH_QUICK=1 MEMS_BENCH_JSONL="$tmp" \
  cargo bench -p mems-bench \
    --bench hdl_eval \
    --bench batch_sweep \
    --bench batch_ordering \
    --bench serve_roundtrip \
    1>&2

{
  echo '{'
  awk 'NR > 1 { printf ",\n" } { printf "  %s", $0 } END { printf "\n" }' "$tmp"
  echo '}'
} > "$out"
echo "wrote $out ($(grep -c ':' "$out") entries)" 1>&2
