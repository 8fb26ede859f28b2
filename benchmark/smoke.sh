#!/usr/bin/env bash
# Smoke check: every workload at reduced sizes and one pass, untraced
# and traced.  Fails if a run fails its correctness gate or its JSON
# line lacks a metric that BENCHMARK.json names.
#
#   benchmark/smoke.sh RUN_EXE BENCHMARK_JSON   (or: dune build @benchmark/smoke)
set -euo pipefail
run=$1
spec=$2

mapfile -t workloads < <(python3 -c 'import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")

for w in "${workloads[@]}"; do
  for trace in 0 1; do
    line=$("$run" --workload "$w" --seconds 0 --trace "$trace" --smoke | tail -n 1)
    python3 - "$spec" "$w" "$trace" "$line" <<'EOF'
import json, sys
spec, workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
want = json.load(open(spec))["per_layer" if trace == "1" else "end_to_end"]
got = json.loads(line)
missing = [m["name"] for m in want if m["name"] not in got["metrics"]]
if missing or not got["correct"]:
    sys.exit(f"{workload} --trace {trace}: correct={got['correct']} missing={missing}")
print(f"{workload} --trace {trace}: {len(want)} metrics, correct")
EOF
  done
done
