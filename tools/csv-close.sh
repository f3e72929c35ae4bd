#!/usr/bin/env bash
# Compares two CSV files field by field. Numeric fields must agree to a
# relative tolerance (absolute below magnitude 1); every other field,
# the field counts, and the row counts must match exactly. Prints the
# first mismatch as `row:col` and exits 1.
#
#   tools/csv-close.sh A.csv B.csv [TOL]     # TOL defaults to 1e-8
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ] || [ ! -r "$1" ] || [ ! -r "$2" ]; then
  echo "usage: $0 A.csv B.csv [TOL]" >&2
  exit 2
fi

awk -F, -v tol="${3:-1e-8}" '
  function num(v) { return v ~ /^[ \t]*[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?[ \t]*$/ }
  function abs(v) { return v < 0 ? -v : v }
  function fail(row, col, why) {
    print "mismatch at " row ":" col ": " why
    failed = 1
    exit 1
  }
  BEGIN {
    while ((getline line < ARGV[1]) > 0) {
      rows_a++
      nf[rows_a] = split(line, field, ",")
      for (i = 1; i <= nf[rows_a]; i++) a[rows_a, i] = field[i]
    }
    a_name = ARGV[1]
    ARGV[1] = ""
  }
  {
    rows_b = FNR
    if (FNR > rows_a) fail(FNR, 1, "row only in " FILENAME)
    for (i = 1; i <= (NF > nf[FNR] ? NF : nf[FNR]); i++) {
      if (i > NF || i > nf[FNR]) fail(FNR, i, "field count " nf[FNR] " vs " NF)
      x = a[FNR, i]; y = $i
      if (num(x) && num(y)) {
        s = abs(x) > abs(y) ? abs(x) : abs(y)
        if (abs(x - y) > tol * (s > 1 ? s : 1)) fail(FNR, i, x " vs " y)
      } else if (x != y) fail(FNR, i, x " vs " y)
    }
  }
  END {
    if (failed) exit 1
    if (rows_a > rows_b) fail(rows_b + 1, 1, "row only in " a_name)
  }
' "$1" "$2"
