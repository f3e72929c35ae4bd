#!/usr/bin/env bash
# bench-ab.sh — A/B the repository benchmark between two revisions.
#
#   tools/bench-ab.sh [--pairs N] [--seed S] [--also S:N]... [--seconds T]
#                     PARENT CHANGE OUT.json
#
# PARENT and CHANGE are git revisions; CHANGE may also be WORKTREE,
# the working tree as it is (tracked and untracked files, ignored
# files left out). Each side is exported with `git archive` (or, for
# WORKTREE, copied) into a temporary directory and built there, so
# `.git` gains no worktree entries and both sides build from clean
# trees with the same settings.
#
# The command, workloads, metrics and bounds come from BENCHMARK.json
# of the PARENT export, and only BENCHMARK.json and perfbench/ are
# read. Every pair runs each workload once on each side, back to back,
# with `--seed S --seconds T --trace 0` (T defaults to run_seconds);
# odd pairs run the parent first, even pairs the change first. `--also
# S:N` adds N more pairs at seed S, reported as `workload@seedS`.
#
# OUT.json holds a `_meta` block and a `workloads` block: per metric,
# each side's median and quartiles (linear interpolation), the pairs
# the change wins (ties count for neither), the median change, the
# parent's IQR/median, whether a gain is shown (wins in at least 9 of
# 10 pairs and a median difference larger than the parent's IQR), and
# a verdict against the bound: `better or equal`, `within bound`,
# `unresolved` or `regression`. A median worse by more than the bound
# reads `unresolved` when the parent's own IQR/median is wider than
# the bound. A seed planned with fewer than 10 pairs, such as an
# `--also` seed, shows no gain, and there a median worse by more than
# the bound reads `regression` only when every change run is worse
# than every parent run, else `unresolved`: one outlying run of three
# would decide a median. Pairs count as planned, so a run that leaves
# no record cannot soften a verdict. `_runs` lists each run's failed
# and attempted counts. Raw run records stay in the temporary
# directory, whose path is printed.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 [--pairs N] [--seed S] [--also S:N]... [--seconds T] PARENT CHANGE OUT.json" >&2
  exit 2
}

pairs=10
seed=1
seconds=""
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --also) extra+=("${2:?}"); shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    -*) usage ;;
    *) break ;;
  esac
done
[ $# -eq 3 ] || usage
parent_rev="$1"
change_rev="$2"
out="$3"
command -v python3 >/dev/null || { echo "error: python3 is required" >&2; exit 1; }

work="$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")"
echo "bench-ab: working in $work" >&2

# export SIDE REV: a clean tree of REV (or of the working tree).
export_tree() {
  local dir="$work/$1"
  mkdir -p "$dir"
  if [ "$2" = WORKTREE ]; then
    git ls-files -z --cached --others --exclude-standard |
      while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
      tar --null -T - -cf - | tar -xf - -C "$dir"
  else
    git archive "$2" | tar -xf - -C "$dir"
  fi
}

resolve() {
  if [ "$1" = WORKTREE ]; then
    echo "working tree at $(git rev-parse HEAD)"
  else
    git rev-parse --verify "$1^{commit}"
  fi
}
parent_id="$(resolve "$parent_rev")"
change_id="$(resolve "$change_rev")"

export_tree parent "$parent_rev"
export_tree change "$change_rev"
bench="$work/parent/BENCHMARK.json"

# The BENCHMARK.json command, one word per line.
mapfile -t cmd < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$bench")
mapfile -t workloads < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench")
[ -n "$seconds" ] || seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")"

for side in parent change; do
  echo "bench-ab: building $side" >&2
  (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

# run SIDE WORKLOAD SEED PAIR: one benchmark run, its last stdout line kept.
run() {
  local rec="$work/runs/seed$3/$2/$1-$4"
  mkdir -p "$(dirname "$rec")"
  (cd "$work/$1" && CARGO_TARGET_DIR="$work/target-$1" "${cmd[@]}" \
    --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) >"$rec.out" 2>"$rec.err" || true
  tail -n 1 "$rec.out" >"$rec.json"
  echo "bench-ab: seed $3 pair $4 $2 $1: $(head -c 120 "$rec.json")" >&2
}

plan=("$seed:$pairs" "${extra[@]}")
for entry in "${plan[@]}"; do
  s="${entry%%:*}"
  n="${entry##*:}"
  for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for w in "${workloads[@]}"; do
      for side in "${order[@]}"; do run "$side" "$w" "$s" "$i"; done
    done
  done
done

python3 - "$bench" "$work/runs" "$out" "$parent_id" "$change_id" "$seconds" "${plan[@]}" <<'PY'
import json, os, sys

bench_path, runs, out_path, parent_id, change_id, seconds, *plan = sys.argv[1:]
bench = json.load(open(bench_path))
metrics = bench["end_to_end"]
# Fewest planned pairs whose medians may show a gain or a regression.
MIN_PAIRS = 10


def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(xs):
    return {"median": quantile(xs, 0.5), "q1": quantile(xs, 0.25), "q3": quantile(xs, 0.75)}


def load(seed, workload, side, pair):
    path = os.path.join(runs, f"seed{seed}", workload, f"{side}-{pair}.json")
    try:
        return json.load(open(path))
    except (OSError, ValueError):
        return None


workloads = {}
for entry in plan:
    seed, pairs = (int(x) for x in entry.split(":"))
    for w in (w["name"] for w in bench["workloads"]):
        key = w if entry == plan[0] else f"{w}@seed{seed}"
        recs = [(load(seed, w, "parent", i), load(seed, w, "change", i)) for i in range(1, pairs + 1)]
        block = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                    for p, c in recs if p and c and name in p.get("metrics", {}) and name in c.get("metrics", {})]
            if not both:
                continue
            ps, cs = [p for p, _ in both], [c for _, c in both]
            par, chg = summary(ps), summary(cs)
            wins = sum(1 for p, c in both if (c < p if lower else c > p))
            base = par["median"]
            change = (chg["median"] - base) / base if base else 0.0
            worse = change if lower else -change
            iqr = par["q3"] - par["q1"]
            spread = iqr / base if base else 0.0
            if worse <= 0:
                verdict = "better or equal"
            elif worse <= m["bound"]:
                verdict = "within bound"
            elif pairs < MIN_PAIRS:
                apart = min(cs) > max(ps) if lower else max(cs) < min(ps)
                verdict = "regression" if apart else "unresolved"
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "regression"
            block[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": par,
                "change": chg,
                "change_wins": wins,
                "pairs": len(both),
                "median_change": change,
                "parent_iqr_over_median": spread,
                "gain_shown": pairs >= MIN_PAIRS and wins * 10 >= 9 * pairs
                and abs(chg["median"] - base) > iqr,
                "verdict": verdict,
            }
            if m["unit"] == "count":
                block[name]["identical_every_pair"] = all(p == c for p, c in both)
        field = lambda r, k: r.get(k) if r else None
        block["_runs"] = {
            "pairs": pairs,
            "failed": {s: [field(r[j], "failed") for r in recs] for j, s in enumerate(("parent", "change"))},
            "attempted": {s: [field(r[j], "attempted") for r in recs] for j, s in enumerate(("parent", "change"))},
            "correct": all(p and c and p.get("correct") and c.get("correct") for p, c in recs),
        }
        workloads[key] = block

first_seed, first_pairs = (int(x) for x in plan[0].split(":"))
doc = {
    "_meta": {
        "nproc": os.cpu_count(),
        "parent_rev": parent_id,
        "change_rev": change_id,
        "command": " ".join(bench["command"]) + " --workload W --seed S --seconds T --trace 0",
        "seed": first_seed,
        "seconds": float(seconds),
        "pairs": first_pairs,
        "extra_runs": [f"seed {e.split(':')[0]}: {e.split(':')[1]} pairs, as workload@seed{e.split(':')[0]}" for e in plan[1:]],
        "order": "alternating: parent first in odd pairs, change first in even pairs; within a pair index the workloads run back to back",
        "quartiles": "linear interpolation over the runs per side",
        "verdict": "median change against the BENCHMARK.json bound; when worse by more than the bound, 'unresolved' if the parent's IQR/median is wider than the bound, or, on a seed planned with fewer than 10 pairs, if any change run is no worse than some parent run",
        "gain_shown": "at least 10 planned pairs, the change wins at least 9 in 10 of them, and the medians differ by more than the parent's IQR",
    },
    "workloads": workloads,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
for key, block in workloads.items():
    for name, m in block.items():
        if name.startswith("_"):
            continue
        print(f"{key:22} {name:20} parent {m['parent']['median']:12.6g} change {m['change']['median']:12.6g} "
              f"({m['median_change']:+.1%}, wins {m['change_wins']}/{m['pairs']}, "
              f"iqr/med {m['parent_iqr_over_median']:.3f}) {m['verdict']}{' GAIN' if m['gain_shown'] else ''}")
print(f"wrote {out_path}", file=sys.stderr)
PY
