#!/usr/bin/env bash
# Prices the working tree against a parent commit on the repository
# benchmark and writes BENCH_e2e.json at the repository root.
#
#   scripts/bench_pair.sh [parent-rev] [runs] [seed]
#
# parent-rev (default HEAD~1) is exported with `git archive` into a
# temporary directory: its committed files and nothing else, as a fresh
# checkout of it builds them, and no worktree is registered in .git.  The
# working tree is the change side.  Both sides run their own, untouched
# bench/run.sh, which builds the harness from that side's source.
#
# Each of `runs` rounds (default 5) runs every workload once on each side, on
# seed+round, and alternates which side goes first, so a drift of the host
# lands on both.  One traced run per side and workload on `seed` (default 7)
# then gives the per-layer exact counts, which must be the same on both sides
# unless the change means to move one.
#
# BENCH_e2e.json keeps, per workload:
#   - each time metric (op_p50_ms, setup_s, throughput_per_s) as the ratio of
#     the change's median to the parent's, with both sides' quartiles and the
#     rounds the change won.  A median in ms depends on the host; the ratio of
#     two measured side by side much less so.
#   - alloc_kb_per_op raw, both sides' quartiles: it is host-independent.
#   - the change's exact counts (the per-layer metrics bench/spec.go marks
#     exact) raw, and how many of them equal the parent's.
# The output of `bench/run.sh -compare parent change` is printed at the end.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="${1:-HEAD~1}"
runs="${2:-5}"
seed="${3:-7}"
parent_sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
change_sha="$(git -C "$root" rev-parse HEAD)"
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
	change_sha="$change_sha+worktree"
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent"

workloads="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"

# one SIDE WORKLOAD SEED TRACE appends the run's result line to
# $work/SIDE.TRACE.WORKLOAD.  A run whose oracle fails still prints its line.
one() {
	local dir="$root"
	[ "$1" = parent ] && dir="$work/parent"
	echo "$1 $2 seed $3 trace $4" >&2
	{ bash "$dir/bench/run.sh" --workload "$2" --seed "$3" --trace "$4" || true; } | tail -n 1 >>"$work/$1.$4.$2"
}

for ((i = 0; i < runs; i++)); do
	order="parent change"
	((i % 2 == 1)) && order="change parent"
	for wl in $workloads; do
		for side in $order; do
			one "$side" "$wl" $((seed + i)) 0
		done
	done
done
for wl in $workloads; do
	for side in parent change; do
		one "$side" "$wl" "$seed" 1
	done
done

exact="$(grep -oE '\{"[^"]+", "[a-z]+", true\}' "$root/bench/spec.go" | cut -d'"' -f2 | tr '\n' ' ')"
python3 - "$work" "$root/BENCH_e2e.json" "$workloads" "$exact" "$seed" "$runs" "$parent_sha" "$change_sha" <<'EOF'
import json, statistics, sys

work, out, workloads, exact, seed, runs, parent_sha, change_sha = sys.argv[1:]
workloads, exact, seed, runs = workloads.split(), exact.split(), int(seed), int(runs)
spec = json.load(open(out.rsplit("/", 1)[0] + "/BENCHMARK.json"))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}

def lines(side, trace, wl):
    return [json.loads(l) for l in open(f"{work}/{side}.{trace}.{wl}")]

def quart(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3

def results(side):
    f = {"seed": seed, "seconds": spec["run_seconds"], "workloads": {}}
    for wl in workloads:
        untraced, traced = lines(side, 0, wl), lines(side, 1, wl)[0]
        f["workloads"][wl] = {
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in untraced],
            "layers": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in untraced),
            "failed": sum(r["failed"] for r in untraced),
        }
    return f

sides = {s: results(s) for s in ("parent", "change")}
for s, f in sides.items():
    json.dump(f, open(f"{work}/{s}.json", "w"), indent=1)

doc = {
    "parent": parent_sha, "change": change_sha, "seed": seed, "runs_per_side": runs,
    "note": "time metrics are change/parent ratios of medians over alternated runs; "
            "alloc_kb_per_op and exact counts are raw",
    "workloads": {},
}
for wl in workloads:
    p, c = sides["parent"]["workloads"][wl], sides["change"]["workloads"][wl]
    row = {"failed": {"parent": p["failed"], "change": c["failed"], "attempted": c["attempted"]}}
    for m, dirn in better.items():
        pv, cv = [r[m] for r in p["runs"]], [r[m] for r in c["runs"]]
        qp, qc = quart(pv), quart(cv)
        if m == "alloc_kb_per_op":
            row[m] = {"parent": {"median": qp[1], "quartiles": [qp[0], qp[2]]},
                      "change": {"median": qc[1], "quartiles": [qc[0], qc[2]]}}
            continue
        won = sum((b < a) if dirn == "lower" else (b > a) for a, b in zip(pv, cv))
        row[m] = {
            "ratio": qc[1] / qp[1],
            "parent_quartiles": [qp[0] / qp[1], qp[2] / qp[1]],
            "change_quartiles": [qc[0] / qp[1], qc[2] / qp[1]],
            "pairs_won": f"{won}/{len(pv)}",
        }
    same = [k for k in exact if p["layers"].get(k) == c["layers"].get(k)]
    row["exact"] = {"identical": len(same), "of": len(exact),
                    "counts": {k: c["layers"][k] for k in exact}}
    doc["workloads"][wl] = row
json.dump(doc, open(out, "w"), indent=1)
open(out, "a").write("\n")
EOF
echo "wrote $root/BENCH_e2e.json" >&2
bash "$root/bench/run.sh" -compare "$work/parent.json" "$work/change.json" || true
