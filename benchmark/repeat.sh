#!/usr/bin/env bash
# Two sets of N untraced runs per workload, to size and check the
# regression bounds in BENCHMARK.json.
#
#   benchmark/repeat.sh [-n N] [-b SEED_BASE] [WORKLOAD...]
#
# Run from the repository root.  Every run measures for run_seconds
# from BENCHMARK.json.  Run i of set k uses seed
# SEED_BASE + 100*k + i; the workload order reverses on every other
# run so slow host phases do not always hit the same workload.  Before
# each run a fixed CPU loop is timed (host_ref_ms): an ungated drift
# diagnostic.  For every workload and end-to-end metric the summary
# prints each set's median and IQR (as a share of the median) and the
# set-to-set median difference against the metric's bound, and the
# bound the sizing rule asks for: 1.5 x the largest of the difference
# and the two IQRs, at least 5% and at most 25% (setup_s always takes
# 25%, the largest).  Raw results
# go to _build/bench/repeat-<timestamp>.jsonl.  Exits 1 if a run failed a
# gate, an IQR other than setup_s's exceeds its bound, or set 2's
# median is worse than set 1's by more than the bound.
set -euo pipefail

n=10
base=0
while getopts "n:b:" opt; do
  case $opt in
    n) n=$OPTARG ;;
    b) base=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))

json_get() { python3 -c "import json,sys; d=json.load(open('BENCHMARK.json')); print($1)"; }
secs=$(json_get 'd["run_seconds"]')
if [ $# -gt 0 ]; then workloads=("$@"); else
  mapfile -t workloads < <(json_get '"\n".join(w["name"] for w in d["workloads"])')
fi

dune build --root . ./benchmark/run.exe
mkdir -p _build/bench
log=_build/bench/repeat-$(date +%Y%m%d-%H%M%S).jsonl

host_ref_ms() {
  python3 -c 'import time
t = time.perf_counter(); s = 0
for i in range(2_000_000): s += i * i
print(round((time.perf_counter() - t) * 1e3, 1))'
}

for set in 1 2; do
  for i in $(seq 1 "$n"); do
    order=("${workloads[@]}")
    if [ $((i % 2)) -eq 0 ]; then
      for ((k = 0; k < ${#workloads[@]}; k++)); do
        order[k]=${workloads[${#workloads[@]} - 1 - k]}
      done
    fi
    for w in "${order[@]}"; do
      seed=$((base + 100 * set + i))
      ref=$(host_ref_ms)
      line=$(./_build/default/benchmark/run.exe --workload "$w" --seed "$seed" \
        --seconds "$secs" --trace 0 | tail -n 1)
      printf '{"set": %d, "workload": "%s", "seed": %d, "host_ref_ms": %s, "result": %s}\n' \
        "$set" "$w" "$seed" "$ref" "$line" >>"$log"
      echo "set $set run $i $w seed $seed host_ref_ms $ref" >&2
    done
  done
done

python3 - "$log" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
ok = True

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

refs = [r["host_ref_ms"] for r in rows]
print(f"host_ref_ms: median {statistics.median(refs):.1f}, "
      f"min {min(refs):.1f}, max {max(refs):.1f} (ungated)")
bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
if bad:
    ok = False
    print(f"FAIL: {len(bad)} run(s) not correct")
print(f"{'workload/metric':40} {'med1':>12} {'iqr1':>7} {'med2':>12} {'iqr2':>7} "
      f"{'diff':>7} {'bound':>6} {'sized':>6}")
for w in dict.fromkeys(r["workload"] for r in rows):
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        sets = [[r["result"]["metrics"][name]["value"] for r in rows
                 if r["workload"] == w and r["set"] == s] for s in (1, 2)]
        if any(len(xs) < 2 for xs in sets):
            continue
        m1, m2 = (statistics.median(xs) for xs in sets)
        s1, s2 = (spread(xs) for xs in sets)
        worse = (m2 - m1) / m1 if lower else (m1 - m2) / m1
        diff = abs(m2 - m1) / m1
        sized = 0.25 if name == "setup_s" else min(0.25, max(0.05, 1.5 * max(diff, s1, s2)))
        flags = []
        if name != "setup_s" and max(s1, s2) > bound:
            flags.append("iqr>bound")
        if worse > bound:
            flags.append("worse>bound")
        ok = ok and not flags
        if name != "setup_s" and bound / 3 < max(s1, s2) <= bound:
            flags.append("(iqr above bound/3, the steadiness target)")
        print(f"{w + '/' + name:40} {m1:12.5g} {s1:7.1%} {m2:12.5g} {s2:7.1%} "
              f"{diff:7.1%} {bound:6.0%} {sized:6.0%} {' '.join(flags)}")
print("all checks pass" if ok else "some checks FAIL")
sys.exit(0 if ok else 1)
EOF
