#!/bin/sh
# Tier-1 check: build + full test suite, with a formatting gate when the
# formatter is actually available (ocamlformat is not baked into every
# container this repo is built in, and dune's @fmt alias fails hard when
# it is missing).
set -e

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping format check (ocamlformat or .ocamlformat not present)"
fi

echo "== dune build (warnings are errors for this gate)"
build_log=$(mktemp)
# Force a fresh compile so warnings already cached in _build still
# surface; dune only prints diagnostics on recompilation.  No pipe:
# under plain sh, `dune | tee` would report tee's status, not dune's.
if ! dune build --force >"$build_log" 2>&1; then
  cat "$build_log"
  rm -f "$build_log"
  exit 1
fi
cat "$build_log"
if grep -q "Warning" "$build_log"; then
  rm -f "$build_log"
  echo "FAIL: dune build emitted compiler warnings (see above)." >&2
  exit 1
fi
rm -f "$build_log"

echo "== dune runtest"
dune runtest

echo "== stress: domain-parallel and oracle suites, 20 runs each"
# A concurrency test that passes once can still fail on the next
# interleaving, and a qcheck property on the next seed.  Each run gets
# its own qcheck seed; a failure prints the suite, the iteration and the
# seed (rerun with QCHECK_SEED=<seed>).
dune build test/test_monitor.exe test/test_stats.exe test/test_parallel.exe \
  test/test_oracle.exe
for suite in test_monitor test_stats test_parallel test_oracle; do
  i=1
  while [ "$i" -le 20 ]; do
    seed=$((1998 * 1000 + i))
    log=$(mktemp)
    if ! QCHECK_SEED=$seed "./_build/default/test/$suite.exe" >"$log" 2>&1; then
      cat "$log"
      rm -f "$log"
      echo "FAIL: $suite failed on iteration $i/20 (QCHECK_SEED=$seed)." >&2
      exit 1
    fi
    rm -f "$log"
    i=$((i + 1))
  done
  echo "  $suite: 20/20 passed"
done

echo "== event-codec golden test"
dune exec test/test_events.exe -- test codec

echo "== bench run: the scenarios no other path measures"
dune exec bench/main.exe

echo "== BENCH.json is valid and carries every gated scenario"
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
d = json.load(open("BENCH.json"))
assert d["schema"] == "thinlocks-bench-v1", d.get("schema")
assert d["cores"] >= 1
cm = d["scenarios"]["cjm_micro"]
assert cm, "cjm_micro section is empty"
assert {r["scheme"] for r in cm} == {"thin", "fat", "cjm"}, \
    "cjm_micro must cover thin, fat and cjm"
assert {r["kernel"] for r in cm} >= {"sync", "nestedsync", "mixedsync"}
for r in cm:
    assert r["ns_per_op"] > 0.0, "cjm_micro row with no cost: %r" % r
tc = d["scenarios"]["tid_churn"]
assert tc, "tid_churn section is empty"
base = tc[0]["ns_per_cycle"]
for r in tc:
    assert r["ns_per_cycle"] > 0.0
    assert r["ns_per_cycle"] < 20.0 * base + 1000.0, \
        "tid allocate/release cost grew with live count (%r)" % r
sl = d["scenarios"]["slot_churn"]
assert sl["census"] >= 1 << 23, \
    "slot churn allocated %d monitors, short of the 2^23 ceiling" % sl["census"]
assert sl["live"] == 0, "slot churn left %d monitor(s) live" % sl["live"]
oh = d["scenarios"]["oracle_overhead"]
assert oh["events"] > 0
assert oh["violations"] == 0, "oracle flagged a clean replay stream"
for key in ("verify_ns_per_event", "residency_ns_per_event"):
    assert oh[key] >= 0.0, key
fairness = d["scenarios"]["fat_backend"]["fairness"]
assert {r["backend"] for r in fairness} == {"parker", "hapax"}, \
    "fairness table incomplete"
for r in fairness:
    assert r["grants"] > 0 and r["adjacent_inversions"] >= 0
    assert 0.0 <= r["inversion_rate"] <= 1.0
    assert 0.0 <= r["wait_p99_us"] <= r["wait_max_us"]
inv = {r["backend"]: r["inversion_rate"] for r in fairness}
assert inv["hapax"] <= inv["parker"], \
    "FIFO admission must not barge more than the parker entry queue"
ctl = d["scenarios"]["controller"]
reps = ctl["replays"]
assert {r["bench"] for r in reps} >= {"javalex", "javacup", "mocha"}, \
    "controller replays must cover the lab benchmarks"
for r in reps:
    assert r["best_score"] > 0.0 and r["controlled_score"] > 0.0
    # The acceptance bar: one shared controller configuration tracks the
    # per-workload best fixed policy within 25% on the lab score...
    assert r["score_ratio"] <= 1.25, \
        "%s: controlled score %.2f not within 1.25x best fixed %s (%.2f)" \
        % (r["bench"], r["controlled_score"], r["best_fixed"], r["best_score"])
    # ...and on the fat-residency integral (small absolute slack: the
    # best rows sit near zero monitors resident).
    assert r["controlled_fat_residency"] <= 1.25 * r["best_fat_residency"] + 0.25, \
        "%s: controlled residency %.2f vs best fixed %.2f" \
        % (r["bench"], r["controlled_fat_residency"], r["best_fat_residency"])
    assert r["policy_switches"] >= 0 and r["shards"], "controller shards missing"
    for s in r["shards"]:
        assert s["policy"] in ("never", "zero-contended-episodes", "idle-for-4",
                               "always-idle"), s
        assert s["epochs"] >= 0 and s["switches"] >= 0
    assert r["chosen_policies"], "chosen-policy census missing"
st = ctl["storm"]
assert st["fixed"] and {f["reap"] for f in st["fixed"]} >= \
    {"never", "always-idle", "idle-for-4"}, "storm fixed-policy rows incomplete"
for f in st["fixed"]:
    assert f["oracle_clean"], "%s-reap storm stream failed the oracle" % f["reap"]
assert st["controlled"]["oracle_clean"], "controlled storm stream failed the oracle"
assert 0.0 < st["best_fixed_p99_us"]
assert st["tail_ratio_p99"] <= 1.25, \
    "controlled storm p99 %.1f us is %.3fx the best fixed policy (%.1f us)" \
    % (st["controlled"]["p99_us"], st["tail_ratio_p99"], st["best_fixed_p99_us"])
assert st["controlled"]["reaper_scans"] > 0, "controlled storm never scanned"
assert st["shards"], "controlled storm shard snapshots missing"
ev = d["scenarios"]["events_overhead"]
assert ev["enabled_ns"] < 25.0, \
    "tracing overhead %.1f ns/event blows the always-on budget" % ev["enabled_ns"]
assert ev["events_dropped"] == 0, "overhead loop overran its ring"
assert 0.0 < ev["bin_bytes_per_event"] < ev["text_bytes_per_event"], \
    "binary codec is not smaller than text"
for key in ("sampled_ratio_1_in_8", "contended_only_ratio"):
    assert 0.0 < ev[key] < 1.0, "%s=%r not a proper sampling ratio" % (key, ev.get(key))
print("BENCH.json: %d cjm-micro rows, oracle over %d events, %d churn cycles "
      "(%d slot reuses), cores=%d"
      % (len(cm), oh["events"], sl["cycles"], sl["reuses"], d["cores"]))
print("  fat backends: inversion rates %s"
      % {b: round(r, 4) for b, r in sorted(inv.items())})
print("  tracing: %.1f ns/event enabled overhead; %.1f text vs %.1f bin bytes/event"
      % (ev["enabled_ns"], ev["text_bytes_per_event"], ev["bin_bytes_per_event"]))
print("  controller: score ratios %s; storm tail %.3fx best fixed, %d switch(es)"
      % ({r["bench"]: round(r["score_ratio"], 3) for r in reps},
         st["tail_ratio_p99"], st["policy_switches"]))
EOF
else
  grep -q '"thinlocks-bench-v1"' BENCH.json
  grep -q '"cjm_micro"' BENCH.json
  grep -q '"scheme": "cjm"' BENCH.json
  grep -q '"tid_churn"' BENCH.json
  grep -q '"slot_churn"' BENCH.json
  grep -q '"fat_backend"' BENCH.json
  grep -q '"adjacent_inversions"' BENCH.json
  grep -q '"oracle_overhead"' BENCH.json
  grep -q '"controller"' BENCH.json
  grep -q '"tail_ratio_p99"' BENCH.json
  grep -q '"chosen_policies"' BENCH.json
  echo "BENCH.json: key smoke (python3 unavailable)"
fi

# Run one fiber storm (the arguments follow `fiber-storm`) and gate its
# report: positive throughput and an ordered acquire-latency tail
# (0 < p50 <= p99 <= p999 — latencies sample the monotonic ns clock, so
# even an uncontended acquire measures > 0).  A traced run also gates
# its trace line: nothing dropped, and event storage proportional to
# the events written.  A ring holds at most twice its events or its
# initial 32 slots (64 words), over at most one ring per leased tid
# plus the generator's and the system stream's; a return to up-front
# ring reservation breaks the bound.  The CLI itself exits 1 on a lost
# fiber, a leaked table entry or an unclean oracle.
storm_gate() {
  case " $* " in
    *" --no-trace "*) traced=0 ;;
    *) traced=1 ;;
  esac
  if ! out=$(dune exec bin/thinlocks.exe -- fiber-storm "$@"); then
    echo "$out"
    exit 1
  fi
  echo "$out"
  echo "$out" | awk -v traced="$traced" '
    $1 == "throughput" { ops = $2 + 0 }
    $1 == "acquire" && $2 == "lat" { p50 = $4 + 0; p99 = $6 + 0; p999 = $8 + 0; lat = 1 }
    /tid leases/ { tids = $3 }
    $1 == "trace" { events = $2; dropped = $4; words = $6; seen = 1 }
    END {
      if (!(ops > 0)) { print "FAIL: storm reported no throughput" > "/dev/stderr"; exit 1 }
      if (!lat || !(0 < p50 && p50 <= p99 && p99 <= p999)) {
        print "FAIL: acquire latency tail not 0 < p50 <= p99 <= p999" > "/dev/stderr"
        exit 1
      }
      print "  latency tail ordered: p50 " p50 " <= p99 " p99 " <= p999 " p999 " us"
      if (!traced) exit 0
      if (!seen) { print "FAIL: storm printed no trace line" > "/dev/stderr"; exit 1 }
      if (dropped != 0) { print "FAIL: storm trace dropped " dropped " event(s)" > "/dev/stderr"; exit 1 }
      bound = 4 * events + (tids + 2) * 64
      if (words > bound) {
        print "FAIL: " words " buffered words for " events " events over " tids \
          " tids (bound " bound ")" > "/dev/stderr"
        exit 1
      }
      print "  trace memory " words " words <= bound " bound
    }'
}

# Run one parallel replay (the arguments follow `replay-par`) and gate
# its summary: positive ops/sec and a fast ratio within [0, 100]%.  A
# leading `--want-fast R` also requires the printed ratio to read R%;
# `--want-fast off` requires the `statistics: off` line in its place.
# The CLI itself exits 1 on an unclean --oracle verdict.
replay_par_gate() {
  want=
  if [ "$1" = "--want-fast" ]; then
    want=$2
    shift 2
  fi
  if ! out=$(dune exec bin/thinlocks.exe -- replay-par "$@"); then
    echo "$out"
    exit 1
  fi
  if ! echo "$out" | awk -v want="$want" '
    { for (i = 2; i <= NF; i++) if ($i == "ops/sec") ops = $(i - 1) + 0 }
    $1 == "fast" && $2 == "ratio:" { fast = $3 + 0; printed = $3; seen = 1 }
    $1 == "statistics:" && $2 == "off" { off = 1 }
    END {
      if (want == "off") {
        if (!(ops > 0) || !off || seen) {
          print "FAIL: replay-par needs ops/sec > 0 and \"statistics: off\" in place of a fast ratio" > "/dev/stderr"
          exit 1
        }
        printf "  %.0f ops/sec, statistics off\n", ops
        exit 0
      }
      if (!(ops > 0) || !seen || fast < 0 || fast > 100) {
        print "FAIL: replay-par needs ops/sec > 0 and a fast ratio in [0, 100]%" > "/dev/stderr"
        exit 1
      }
      if (want != "" && printed != want "%") {
        print "FAIL: replay-par fast ratio " printed ", want " want "%" > "/dev/stderr"
        exit 1
      }
      printf "  %.0f ops/sec, fast ratio %.1f%%\n", ops, fast
    }'; then
    echo "$out"
    exit 1
  fi
}

echo "== fiber storm smoke (100k fibers, 1 domain, oracle must be clean)"
storm_gate --fibers 100000 --domains 1

echo "== fiber storm on 2 carrier domains (100k fibers, oracle must be clean)"
storm_gate --fibers 100000 --domains 2

echo "== fiber storm at a held-out seed (100k fibers, oracle must be clean)"
storm_gate --fibers 100000 --domains 1 --seed 7

echo "== fiber storm on the cjm table (100k fibers, oracle + conservation)"
storm_gate --fibers 100000 --domains 1 --scheme cjm

echo "== fiber storm at 1M fibers, untraced (thin and cjm): throughput and latency tail"
for scheme in thin cjm; do
  storm_gate --fibers 1000000 --no-trace --scheme "$scheme"
done

echo "== fiber storm over the baselines (untraced, 20k fibers each): any registry entry runs"
# MCS is the carrier-rule regression: a waiter that slept or busy-spun
# its carrier instead of yielding would never let a holder queued on
# the same domain run, and this stage would hang.
for scheme in jdk111 ibm112 fat mcs; do
  dune exec bin/thinlocks.exe -- fiber-storm --fibers 20000 --domains 1 --no-trace \
    --scheme "$scheme" >/dev/null
  echo "  $scheme: every fiber completed"
done

echo "== replay --oracle verifies the named scheme (exit non-zero without events)"
tmpdir=$(mktemp -d)
dune exec bin/thinlocks.exe -- trace -b javalex --max-syncs 2000 -o "$tmpdir/t.trace" >/dev/null
dune exec bin/thinlocks.exe -- replay "$tmpdir/t.trace" --scheme cjm --oracle >/dev/null
if dune exec bin/thinlocks.exe -- replay "$tmpdir/t.trace" --scheme jdk111 --oracle \
  >/dev/null 2>&1; then
  rm -rf "$tmpdir"
  echo "FAIL: replay --scheme jdk111 --oracle reported a verdict for a scheme with no events." >&2
  exit 1
fi
rm -rf "$tmpdir"
echo "  cjm verified under its own protocol; jdk111 refused"

echo "== parallel replay smoke (2 domains, shuffle, must contend)"
replay_par_gate -b javacup --domains 2 --shuffle \
  --interleave --max-syncs 8000 --expect-contention

echo "== parallel replay under forced-fat and MCS locking (no thin path: fast ratio 0.0%)"
replay_par_gate --want-fast 0.0 -b javacup --scheme fat --domains 2 --max-syncs 8000
replay_par_gate --want-fast 0.0 -b javacup --scheme mcs --domains 2 --max-syncs 8000

echo "== decomposition shape: javalex at 100k syncs cuts into 523 lanes / 74967 runs"
# Both modes decompose the same trace the same way; shuffle only deals
# the runs differently.
want="replayed javalex under thin: 200000 ops (100000 acquires), 523 lanes / 74967 runs"
for mode in "" "--domains 2 --shuffle"; do
  # $mode is deliberately unquoted: empty, or two flags and a value.
  out=$(dune exec bin/thinlocks.exe -- replay-par -b javalex --max-syncs 100000 $mode)
  if ! echo "$out" | grep -qxF "$want"; then
    echo "$out"
    echo "FAIL: replay-par${mode:+ $mode} did not print \"$want\"." >&2
    exit 1
  fi
done
echo "  523 lanes / 74967 runs, affinity and shuffle"

echo "== trace-diff: identical replays produce identical streams"
tmpdir=$(mktemp -d)
dune exec bin/thinlocks.exe -- events -b javalex --max-syncs 2000 -o "$tmpdir/a.ev" >/dev/null
dune exec bin/thinlocks.exe -- events -b javalex --max-syncs 2000 -o "$tmpdir/b.ev" >/dev/null
dune exec bin/thinlocks.exe -- trace-diff "$tmpdir/a.ev" "$tmpdir/b.ev"
dune exec bin/thinlocks.exe -- events -b javalex --max-syncs 2000 -p always-idle \
  -o "$tmpdir/c.ev" >/dev/null
if dune exec bin/thinlocks.exe -- trace-diff "$tmpdir/a.ev" "$tmpdir/c.ev" >/dev/null; then
  rm -rf "$tmpdir"
  echo "FAIL: trace-diff did not flag diverging policies." >&2
  exit 1
fi
rm -rf "$tmpdir"

echo "== binary codec: macro trace round-trips against the text dump"
tmpdir=$(mktemp -d)
dune exec bin/thinlocks.exe -- events -b javacup --max-syncs 4000 \
  -o "$tmpdir/t.ev" >/dev/null
dune exec bin/thinlocks.exe -- events -b javacup --max-syncs 4000 --binary \
  -o "$tmpdir/t.bin" >/dev/null
dune exec bin/thinlocks.exe -- trace-diff "$tmpdir/t.ev" "$tmpdir/t.bin"
text_sz=$(wc -c <"$tmpdir/t.ev"); bin_sz=$(wc -c <"$tmpdir/t.bin")
if [ "$bin_sz" -ge "$text_sz" ]; then
  rm -rf "$tmpdir"
  echo "FAIL: binary dump ($bin_sz B) is not smaller than text ($text_sz B)." >&2
  exit 1
fi
echo "  binary $bin_sz B vs text $text_sz B for the same stream"
rm -rf "$tmpdir"

echo "== oracle over a sampled stream (1-in-4 objects, whole histories kept)"
tmpdir=$(mktemp -d)
dune exec bin/thinlocks.exe -- events -b javalex --max-syncs 2000 --sample 4 \
  -o "$tmpdir/s.ev" >/dev/null
dune exec bin/thinlocks.exe -- verify-trace "$tmpdir/s.ev" --count-width 1
rm -rf "$tmpdir"

echo "== protocol oracle over replay-par streams (affinity + shuffle, 1/2/4 domains)"
for domains in 1 2 4; do
  replay_par_gate -b javacup --domains "$domains" \
    --max-syncs 6000 --oracle
  replay_par_gate -b javacup --domains "$domains" \
    --shuffle --interleave --max-syncs 6000 --oracle
  echo "  oracle clean at $domains domain(s), both decompositions"
done

echo "== thin variants: protocol oracle over replay-par streams (1/2 domains)"
# The Fig. 6 release and fence variants and the narrow nest count take
# their own branches on the uncontended paths.
for scheme in thin-unlkcas thin-mpsync thin-count2; do
  for domains in 1 2; do
    replay_par_gate -b javacup --scheme "$scheme" --domains "$domains" \
      --max-syncs 6000 --oracle
    replay_par_gate -b javacup --scheme "$scheme" --domains "$domains" \
      --shuffle --interleave --max-syncs 6000 --oracle
  done
  echo "  $scheme oracle clean at 1 and 2 domains, both decompositions"
done
# Without statistics a replay has no fast ratio and no contention count
# to report, and --expect-contention cannot tell whether it contended.
replay_par_gate --want-fast off -b javacup --scheme thin-nostats --domains 2 \
  --shuffle --interleave --max-syncs 6000 --oracle
set +e
dune exec bin/thinlocks.exe -- replay-par -b javacup --scheme thin-nostats --domains 2 \
  --shuffle --max-syncs 2000 --expect-contention >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 2 ]; then
  echo "FAIL: replay-par --expect-contention under thin-nostats exited $status, want 2." >&2
  exit 1
fi
echo "  thin-nostats: statistics off, --expect-contention refused"

echo "== hapax backend: protocol oracle over replay-par streams (1/2/4 domains)"
for domains in 1 2 4; do
  replay_par_gate -b javacup --domains "$domains" \
    --fat-backend hapax --max-syncs 6000 --oracle
  replay_par_gate -b javacup --domains "$domains" \
    --fat-backend hapax --shuffle --interleave --max-syncs 6000 --oracle
  echo "  hapax oracle clean at $domains domain(s), both decompositions"
done

echo "== controlled reaper: protocol oracle over replay-par streams (1/2/4 domains)"
for domains in 1 2 4; do
  replay_par_gate -b javacup --domains "$domains" \
    --shuffle --interleave --max-syncs 6000 --oracle --reap controlled
  echo "  controlled oracle clean at $domains domain(s), Policy_switch in stream"
done

echo "== fiber storm under the feedback controller (100k fibers, oracle must be clean)"
storm_gate --fibers 100000 --domains 1 --reap controlled

echo "== fiber storm on the hapax backend (100k fibers, window 4096, oracle must be clean)"
storm_gate --fibers 100000 --domains 1 --fat-backend hapax

echo "== fiber storm per fat backend (10k fibers, 2 domains, window 512, oracle must be clean)"
for backend in parker hapax; do
  storm_gate --fibers 10000 --domains 2 --in-flight 512 --fat-backend "$backend"
done

echo "== cjm protocol oracle over replay-par streams (affinity + shuffle, 1/2/4 domains)"
for domains in 1 2 4; do
  replay_par_gate -b javacup --scheme cjm \
    --domains "$domains" --max-syncs 6000 --oracle
  replay_par_gate -b javacup --scheme cjm \
    --domains "$domains" --shuffle --interleave --max-syncs 6000 --oracle
  echo "  cjm oracle clean at $domains domain(s), both decompositions"
done

echo "== fiber backend: replay-par and policy-lab run the same workers as fibers"
replay_par_gate -b javacup --domains 2 --shuffle \
  --interleave --backend fibers --max-syncs 6000 --oracle
echo "  replay-par --backend fibers: oracle clean"
dune exec bin/thinlocks.exe -- policy-lab --domains 2 --backend fibers \
  --max-syncs 3000 --benchmarks javalex >/dev/null
echo "  policy-lab --backend fibers: ran"

echo "== verify-trace: accepts a clean dump, flags a tampered one"
tmpdir=$(mktemp -d)
dune exec bin/thinlocks.exe -- events -b javalex --max-syncs 2000 -p always-idle \
  -o "$tmpdir/clean.ev" >/dev/null
dune exec bin/thinlocks.exe -- verify-trace "$tmpdir/clean.ev" --count-width 1
# Retag the stream's first release as a second fast acquire: still a
# well-formed file, but a protocol violation the oracle must catch.
sed '0,/release-fast/{s/release-fast/acquire-fast/}' "$tmpdir/clean.ev" \
  >"$tmpdir/tampered.ev"
if dune exec bin/thinlocks.exe -- verify-trace "$tmpdir/tampered.ev" >/dev/null; then
  rm -rf "$tmpdir"
  echo "FAIL: verify-trace accepted a tampered stream." >&2
  exit 1
fi
dune exec bin/thinlocks.exe -- residency "$tmpdir/clean.ev" >/dev/null
rm -rf "$tmpdir"

echo "== thinlocks all regenerates every table and figure"
out=$(dune exec bin/thinlocks.exe -- all --max-syncs 2000 --iterations 2000)
for heading in "Table 1:" "Figure 3:" "Figure 4:" "Figure 5:" "Figure 6:" \
  "Scenario census" "Count-width ablation" "Monitor lifecycle"; do
  if ! echo "$out" | grep -q "$heading"; then
    echo "$out"
    echo "FAIL: thinlocks all printed no \"$heading\" section." >&2
    exit 1
  fi
done
echo "  every section present"

echo "ok."
