#!/usr/bin/env bash
# bench_mining.sh — run the counting-engine benchmark sweep (cmd/benchmine)
# and validate the artifact.
#
# Default: full sweep, (re)writes the committed BENCH_mining.json.
# -short:  first support point per dataset, written to BENCH_mining.short.json
#          and gated against the committed BENCH_mining.json — schema check,
#          bit-identity check, and an exact-equality gate on every cell's
#          deterministic fields (result SHA, virtual response, op counters).
#          This is the CI mode: virtual time is deterministic, so any drift
#          is a real code change.
set -euo pipefail
cd "$(dirname "$0")/.."

short=0
if [[ "${1:-}" == "-short" ]]; then
  short=1
fi

if [[ $short -eq 1 ]]; then
  out=BENCH_mining.short.json
  go run ./cmd/benchmine -short -o "$out"
else
  out=BENCH_mining.json
  go run ./cmd/benchmine -o "$out"
fi

# Schema and internal-consistency validation.
python3 - "$out" <<'EOF'
import json, sys

path = sys.argv[1]
r = json.load(open(path))

def need(cond, msg):
    if not cond:
        sys.exit(f"bench_mining: {path}: {msg}")

need(r.get("schema") == "parapriori/enginebench/v1", f"bad schema {r.get('schema')!r}")
for key in ("algo", "procs", "machine", "seed", "engines", "cells", "speedups"):
    need(key in r, f"missing key {key!r}")
need(set(r["engines"]) == {"bitset", "hashtree", "trie"}, f"engines = {r['engines']}")
need(len(r["cells"]) > 0, "no cells")

cell_keys = {"dataset", "support", "engine", "transactions", "passes", "frequent",
             "result_sha256", "response_sec", "count_sec", "build_sec", "txn_per_sec",
             "traversals", "leaf_checks", "inserts", "serial_allocs_per_run", "pass_hist"}
shas = {}
for c in r["cells"]:
    need(cell_keys <= set(c), f"cell missing keys: {sorted(cell_keys - set(c))}")
    need(c["response_sec"] > 0 and c["count_sec"] > 0, f"non-positive timings in {c['dataset']}/{c['engine']}")
    need(c["pass_hist"]["count"] > 0, f"empty pass histogram in {c['dataset']}/{c['engine']}")
    for b in c["pass_hist"].get("buckets", []):
        need(b["hi"] > b["lo"] >= 0, "malformed histogram bucket")
    key = (c["dataset"], c["support"])
    shas.setdefault(key, c["result_sha256"])
    need(shas[key] == c["result_sha256"], f"engines disagree on result sha at {key}")

best = max(s["count_speedup"] for s in r["speedups"])
need(best >= 1.5, f"best non-default count speedup {best:.2f}x < 1.5x")
print(f"bench_mining: {path} valid ({len(r['cells'])} cells, best count speedup {best:.2f}x)")
EOF

# Regression gate: the virtual clock and the op counters are pure functions
# of the code and the seed, so a -short run must reproduce the committed
# cell's deterministic fields exactly, for every engine, on every shared
# sweep point.  A change that means to move them regenerates
# BENCH_mining.json in the same commit.
if [[ $short -eq 1 ]]; then
  if [[ ! -f BENCH_mining.json ]]; then
    echo "bench_mining: no committed BENCH_mining.json to gate against" >&2
    exit 1
  fi
  python3 - BENCH_mining.json "$out" <<'EOF'
import json, sys

base = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))

EXACT = ("result_sha256", "response_sec", "traversals", "leaf_checks", "inserts")

def cells(r):
    return {(c["dataset"], c["support"], c["engine"]): c for c in r["cells"]}

bcells, fcells = cells(base), cells(fresh)
shared = sorted(set(bcells) & set(fcells))
if not shared:
    sys.exit("bench_mining: no shared sweep points between baseline and fresh run")

failed = False
for key in shared:
    for field in EXACT:
        b, f = bcells[key][field], fcells[key][field]
        if b != f:
            failed = True
            print(f"bench_mining: {key[0]} minsup={key[1]} {key[2]}: {field} baseline {b!r} fresh {f!r} MOVED")
if failed:
    sys.exit("bench_mining: deterministic fields differ from the committed BENCH_mining.json")
print(f"bench_mining: exact gate passed on {len(shared)} cells ({', '.join(EXACT)})")
EOF
fi

echo "bench_mining: wrote $out"
