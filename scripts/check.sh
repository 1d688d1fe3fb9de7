#!/usr/bin/env bash
# Full verification gate: release build, lint wall, the whole test
# suite, formatting, and release-binary smoke runs (trace export +
# schema validation, sweep throughput + regression gate, profiler
# overhead gate). Run from anywhere inside the repository.
#
#   --quick      skip the release-binary smoke runs
#   --validate   also run the test suite with the invariant checkers on
#                (INTERLEAVE_VALIDATE=1) and enforce the <2x wall-clock
#                overhead budget on the smoke grid
#   --serve-only release build + the serve daemon smoke alone (the CI
#                serve-e2e job's entry point)
#
# Set INTERLEAVE_ARTIFACT_DIR to keep the BENCH_*/METRICS_* smoke
# artifacts (CI uploads them); otherwise they go to a temp dir.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
validate=0
serve_only=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --validate) validate=1 ;;
    --serve-only) serve_only=1 ;;
    *) echo "usage: scripts/check.sh [--quick] [--validate] [--serve-only]" >&2; exit 2 ;;
  esac
done

# Serve smoke: boot the daemon on an ephemeral port, check that a
# hostile 100 KB body of `[` gets a 400 instead of aborting it, submit
# the same CI-scale spec twice, and enforce the service contract end
# to end — the second submit is served fully from the result cache, both wire
# round-trips byte-match an offline sweep of the same spec (METRICS
# strict, BENCH with volatile host keys stripped), the cached
# round-trip clears the latency ceiling, and SIGTERM shuts the daemon
# down without leaving an orphan listener.
serve_pid=""
serve_smoke() {
  local sdir="$tmpdir/serve"
  mkdir -p "$sdir"
  local log="$sdir/serve.log"
  # Create the log before the backgrounded daemon does, so the first
  # poll below never greps a file that does not exist yet.
  : >"$log"
  ./target/release/interleave-sim serve --addr 127.0.0.1:0 \
    --cache-dir "$sdir/cache" >"$log" 2>&1 &
  serve_pid=$!
  # The daemon prints `serve: listening on http://host:port` first;
  # grep the resolved ephemeral port out of the log.
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(grep -o 'http://[0-9.]*:[0-9]*' "$log" | head -1 || true)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "check.sh: serve never reported a listening address:" >&2
    cat "$log" >&2
    exit 1
  fi
  addr="${addr#http://}"
  local host="${addr%:*}" port="${addr##*:}"
  # Nesting deeper than the JSON parser's cap is rejected up front; the
  # submits below then prove the daemon is still serving.
  local status
  exec 3<>"/dev/tcp/$host/$port"
  printf 'POST /jobs HTTP/1.1\r\nHost: %s\r\nContent-Length: 100000\r\nConnection: close\r\n\r\n' \
    "$addr" >&3
  head -c 100000 /dev/zero | tr '\0' '[' >&3
  status="$(head -n 1 <&3 | tr -d '\r')"
  exec 3>&- 3<&-
  case "$status" in
    "HTTP/1.1 400"*) ;;
    *)
      echo "check.sh: hostile nested body got '$status', expected HTTP/1.1 400:" >&2
      cat "$log" >&2
      exit 1
      ;;
  esac
  ./target/release/interleave-sim submit --artifact smoke --scale ci \
    --addr "$addr" --wait --json "$sdir/sub1" >/dev/null
  ./target/release/interleave-sim submit --artifact smoke --scale ci \
    --addr "$addr" --wait --json "$sdir/sub2" >/dev/null
  # The cached-path key is written only when every cell came out of
  # the cache, so its absence means the dedupe contract broke.
  if ! grep -q '"serve_cached_roundtrip_ms"' "$sdir/sub2/SERVE_smoke.json"; then
    echo "check.sh: second submit was not served from the result cache:" >&2
    cat "$sdir/sub2/SERVE_smoke.json" >&2
    exit 1
  fi
  ./target/release/interleave-sim sweep --artifact smoke --scale ci \
    --json "$sdir/offline" >/dev/null
  scripts/determinism_gate.sh "$sdir/sub1" "$sdir/offline"
  scripts/determinism_gate.sh "$sdir/sub2" "$sdir/offline"
  scripts/throughput_gate.sh "$sdir/sub2/SERVE_smoke.json" \
    ci/baseline_smoke.json serve_cached_roundtrip_ms
  kill -TERM "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  serve_pid=""
  # No orphan listener: a reconnect to the old port must be refused.
  if (exec 3<>"/dev/tcp/$host/$port") 2>/dev/null; then
    exec 3>&- 3<&- || true
    echo "check.sh: serve left an orphan listener on $addr after SIGTERM" >&2
    exit 1
  fi
  echo "check.sh: serve smoke ok (hostile body rejected, cached resubmit byte-identical to offline sweep, clean shutdown)"
}

if [ "$serve_only" -eq 1 ]; then
  cargo build --release
  if [ -n "${INTERLEAVE_ARTIFACT_DIR:-}" ]; then
    tmpdir="$INTERLEAVE_ARTIFACT_DIR"
    mkdir -p "$tmpdir"
    trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
  else
    tmpdir="$(mktemp -d)"
    trap '{ [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$tmpdir"; } || true' EXIT
  fi
  serve_smoke
  echo "check.sh: all green (serve-only mode)"
  exit 0
fi

cargo build --release
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
cargo fmt --check

if [ "$validate" -eq 1 ]; then
  # The checkers are always compiled; the environment switch turns
  # them on.
  INTERLEAVE_VALIDATE=1 cargo test -q --workspace
fi

if [ "$quick" -eq 1 ]; then
  echo "check.sh: all green (quick mode, release smokes skipped)"
  exit 0
fi

if [ -n "${INTERLEAVE_ARTIFACT_DIR:-}" ]; then
  tmpdir="$INTERLEAVE_ARTIFACT_DIR"
  mkdir -p "$tmpdir"
  trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
else
  tmpdir="$(mktemp -d)"
  trap '{ [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$tmpdir"; } || true' EXIT
fi

# Smoke: export a Chrome trace from the release binary and feed it back
# through the schema validator (tests/trace_schema.rs).
./target/release/interleave-sim trace --max-cycles 5000 --out "$tmpdir/trace.json"
INTERLEAVE_TRACE_FILE="$tmpdir/trace.json" cargo test -q --test trace_schema

# Smoke: run the seconds-long sweep grid and check the BENCH artifact
# reports a positive host-throughput rate (the hot loop's cycles/sec
# instrumentation stays wired up). A missing key is a hard failure: an
# earlier version piped an empty grep into awk, which exits 0 on zero
# lines of input and silently passed.
./target/release/interleave-sim sweep --artifact smoke --json "$tmpdir" >/dev/null
rate="$(grep -o '"sim_cycles_per_sec": [0-9.]*' "$tmpdir/BENCH_smoke.json" | head -1 | sed 's/.*: //')"
if [ -z "$rate" ]; then
  echo "check.sh: BENCH_smoke.json is missing sim_cycles_per_sec" >&2
  exit 1
fi
if ! awk -v r="$rate" 'BEGIN { exit (r + 0 > 0) ? 0 : 1 }'; then
  echo "check.sh: sweep reported no throughput (sim_cycles_per_sec=$rate)" >&2
  exit 1
fi

# Regression gate against the checked-in baseline floor.
scripts/throughput_gate.sh "$tmpdir/BENCH_smoke.json"

# Smoke: the same grid under the host-phase profiler (`--profile`
# turns it on). The PROFILE artifact must land next to BENCH/METRICS;
# it feeds the attributed throughput gate, the batching guard and the
# attribution self-test below. The smoke grid is too short (~30 ms) to
# time the profiler on; the overhead gate further down uses table7.
mkdir -p "$tmpdir/profiled"
./target/release/interleave-sim sweep --artifact smoke --profile \
  --json "$tmpdir/profiled" >/dev/null
if [ ! -f "$tmpdir/profiled/PROFILE_smoke.json" ]; then
  echo "check.sh: profiled sweep did not write PROFILE_smoke.json" >&2
  exit 1
fi
cp "$tmpdir/profiled/PROFILE_smoke.json" "$tmpdir/PROFILE_smoke.json"

# A plain re-run of the smoke grid: the reference artifacts the resume
# and shard smokes must byte-match.
mkdir -p "$tmpdir/unprofiled"
./target/release/interleave-sim sweep --artifact smoke --json "$tmpdir/unprofiled" >/dev/null

# The profiled run must also clear the throughput floor, with the phase
# documents wired in so a failure would be attributed.
scripts/throughput_gate.sh "$tmpdir/profiled/BENCH_smoke.json" \
  ci/baseline_smoke.json sim_cycles_per_sec \
  "$tmpdir/profiled/PROFILE_smoke.json" ci/baseline_phases.json

# De-batching guard: workload generation must stay batched. A
# per-batch mark rate anywhere near one call per instruction means the
# fetch path stopped pulling runs (DESIGN.md, "Hot path v2"). The
# budget (0.08 source round-trips per simulated cycle) is ~3x the
# measured batched rate and ~4x under the old per-instruction rate.
profile_json="$tmpdir/profiled/PROFILE_smoke.json"
batches="$(grep -o '"name": "workloads.gen_batch", "calls": [0-9]*' "$profile_json" | sed 's/.*: //')"
sim_cycles="$(grep -o '"total_sim_cycles": [0-9]*' "$profile_json" | head -1 | sed 's/.*: //')"
if [ -z "$batches" ] || [ -z "$sim_cycles" ] || [ "$sim_cycles" -eq 0 ]; then
  echo "check.sh: PROFILE_smoke.json is missing workloads.gen_batch or total_sim_cycles" >&2
  exit 1
fi
if ! awk -v b="$batches" -v c="$sim_cycles" 'BEGIN { exit (b / c <= 0.08) ? 0 : 1 }'; then
  echo "check.sh: workloads.gen_batch rate $batches calls / $sim_cycles sim-cycles exceeds the 0.08/cycle batched budget" >&2
  exit 1
fi
echo "check.sh: generation stayed batched ($batches source round-trips over $sim_cycles sim-cycles)"

# Self-test of the phase attribution: derive a "slow" BENCH/PROFILE
# pair from the profiled run's files — the top-level rate halved (under
# the 70% floor) and 400ms per cell added to runner.cell's self and
# total time and to the wall clock — and check the gate fails naming
# that phase. That profiled time lands in the right scope is pinned
# under `cargo test` (nested_scopes_split_self_and_total,
# sweep_profile_emits_phase_artifacts).
mkdir -p "$tmpdir/slow"
awk '!cut && /^  "sim_cycles_per_sec": / {
  printf "  \"sim_cycles_per_sec\": %.1f,\n", ($2 + 0) / 2; cut = 1; next
} { print }' "$tmpdir/profiled/BENCH_smoke.json" >"$tmpdir/slow/BENCH_smoke.json"
awk -v per_cell=400000000 '
  # First pass: the extra time is 400ms per runner.cell call.
  NR == FNR {
    if (/"name": "runner.cell"/) { n = $0; sub(/.*"calls": /, "", n); extra = per_cell * (n + 0) }
    next
  }
  /^  "wall_ns": / { printf "  \"wall_ns\": %.0f,\n", ($2 + 0) + extra; next }
  /"name": "runner.cell"/ {
    t = $0; sub(/.*"total_ns": /, "", t)
    c = $0; sub(/.*"self_ns": /, "", c)
    sub(/"total_ns": [0-9]+/, sprintf("\"total_ns\": %.0f", (t + 0) + extra))
    sub(/"self_ns": [0-9]+/, sprintf("\"self_ns\": %.0f", (c + 0) + extra))
  }
  { print }
' "$tmpdir/profiled/PROFILE_smoke.json" "$tmpdir/profiled/PROFILE_smoke.json" \
  >"$tmpdir/slow/PROFILE_smoke.json"
if gate_out="$(scripts/throughput_gate.sh "$tmpdir/slow/BENCH_smoke.json" \
    "$tmpdir/profiled/BENCH_smoke.json" sim_cycles_per_sec \
    "$tmpdir/slow/PROFILE_smoke.json" "$tmpdir/profiled/PROFILE_smoke.json" 2>&1)"; then
  echo "check.sh: slowed-phase gate unexpectedly passed:" >&2
  echo "$gate_out" >&2
  exit 1
fi
case "$gate_out" in
  *"largest share growth: runner.cell"*) echo "check.sh: slowed-phase gate correctly blamed runner.cell" ;;
  *)
    echo "check.sh: slowed-phase gate failed without naming runner.cell:" >&2
    echo "$gate_out" >&2
    exit 1
    ;;
esac

# Profiler overhead gate: 3 alternating plain/`--profile` pairs of the
# CI-scale table7 grid at --jobs 1 (about 2 s each), compared by the
# median of each BENCH's wall_ms. The profiled median may be at most
# PROFILE_MAX_RATIO times the plain median (measured 1.07-1.37 on
# a 2-vCPU host; DESIGN.md, "Observability v2"). Each pair is followed by
# a plain re-run with the profiler off, as it is by default; their
# median must hold the same ratio, or the host is too noisy for the
# profiled comparison to mean anything.
PROFILE_MAX_RATIO=1.5
bench_wall_ms() {
  grep -o '"wall_ms": [0-9]*' "$1" | head -1 | sed 's/.*: //'
}
# median_wall_ms BENCH...: the median top-level wall_ms of the files.
median_wall_ms() {
  local f v
  for f in "$@"; do
    v="$(bench_wall_ms "$f")"
    if [ -z "$v" ]; then
      echo "check.sh: $f is missing wall_ms" >&2
      return 1
    fi
    echo "$v"
  done | sort -n | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}
# overhead_gate LABEL PLAIN_MEDIAN_MS BENCH...: fails when the median
# wall_ms of the BENCH files exceeds PROFILE_MAX_RATIO x the plain one.
overhead_gate() {
  local label="$1" plain="$2" other
  shift 2
  other="$(median_wall_ms "$@")" || return 1
  if ! awk -v o="$other" -v p="$plain" -v r="$PROFILE_MAX_RATIO" \
      'BEGIN { exit (p > 0 && o <= p * r) ? 0 : 1 }'; then
    echo "check.sh: $label median ${other}ms exceeds ${PROFILE_MAX_RATIO}x the plain median ${plain}ms" >&2
    return 1
  fi
  echo "check.sh: $label median ${other}ms vs plain ${plain}ms (ratio $(awk -v o="$other" -v p="$plain" 'BEGIN { printf "%.2f", o / p }'), limit ${PROFILE_MAX_RATIO}x)"
}
ovh="$tmpdir/overhead"
for i in 1 2 3; do
  ./target/release/interleave-sim sweep --artifact table7 --jobs 1 --json "$ovh/plain$i" >/dev/null
  ./target/release/interleave-sim sweep --artifact table7 --jobs 1 --profile \
    --json "$ovh/profiled$i" >/dev/null
  ./target/release/interleave-sim sweep --artifact table7 --jobs 1 --json "$ovh/rerun$i" >/dev/null
done
plain_ms="$(median_wall_ms "$ovh"/plain{1,2,3}/BENCH_table7.json)"
overhead_gate "profiled table7" "$plain_ms" "$ovh"/profiled{1,2,3}/BENCH_table7.json
overhead_gate "disabled-profiler table7 re-run" "$plain_ms" "$ovh"/rerun{1,2,3}/BENCH_table7.json

# Self-test of the overhead gate: the profiled BENCH files with every
# wall_ms doubled must fail it.
for i in 1 2 3; do
  mkdir -p "$ovh/slow$i"
  awk '{
    while (match($0, /"wall_ms": [0-9]+/)) {
      v = substr($0, RSTART + 11, RLENGTH - 11)
      printf "%s\"wall_ms\": %d", substr($0, 1, RSTART - 1), v * 2
      $0 = substr($0, RSTART + RLENGTH)
    }
    print
  }' "$ovh/profiled$i/BENCH_table7.json" >"$ovh/slow$i/BENCH_table7.json"
done
if overhead_gate "doubled profiled table7" "$plain_ms" "$ovh"/slow{1,2,3}/BENCH_table7.json 2>/dev/null; then
  echo "check.sh: overhead gate passed profiled runs with their wall_ms doubled" >&2
  exit 1
fi
echo "check.sh: overhead gate correctly failed the doubled profiled runs"

# Resume smoke: a complete checkpointed sweep, then every checkpoint
# but one deleted and a torn temp file (a store killed between its
# write and its rename) left in a deleted cell's place. The rerun must
# restore exactly the one surviving cell, recompute the rest, and write
# artifacts byte-identical to an uninterrupted run.
resume_ckpt="$tmpdir/resume_ckpt"
./target/release/interleave-sim sweep --artifact smoke --jobs 1 \
  --checkpoint-dir "$resume_ckpt" >/dev/null 2>&1
ckpts=("$resume_ckpt"/CELL_*.json)
if [ "${#ckpts[@]}" -lt 2 ] || [ ! -e "${ckpts[0]}" ]; then
  echo "check.sh: checkpointed smoke sweep wrote ${#ckpts[@]} CELL_*.json files, need at least 2" >&2
  exit 1
fi
for f in "${ckpts[@]:1}"; do
  head -c "$(($(wc -c <"$f") / 2))" "$f" >"$f.tmp.1.0"
  rm "$f"
done
resume_log="$tmpdir/resume.log"
./target/release/interleave-sim sweep --artifact smoke --jobs 1 \
  --checkpoint-dir "$resume_ckpt" --json "$tmpdir/resume" >/dev/null 2>"$resume_log"
resumed="$(grep -c 'from checkpoint' "$resume_log" || true)"
if [ "$resumed" -ne 1 ]; then
  echo "check.sh: resumed run restored $resumed cells from checkpoints, expected exactly 1:" >&2
  cat "$resume_log" >&2
  exit 1
fi
scripts/determinism_gate.sh "$tmpdir/resume" "$tmpdir/unprofiled"
echo "check.sh: resume smoke ok (1 cell restored beside a torn temp file, artifacts byte-identical)"

# Shard smoke: a 2-way sharded run of the same grid fills one
# checkpoint directory; a whole-grid sweep over it must restore every
# cell and byte-match the single-process artifacts (METRICS strict,
# BENCH with volatile host keys stripped).
shard_ckpt="$tmpdir/shard_ckpt"
./target/release/interleave-sim sweep --artifact smoke --shard 1/2 --checkpoint-dir "$shard_ckpt" >/dev/null
./target/release/interleave-sim sweep --artifact smoke --shard 2/2 --checkpoint-dir "$shard_ckpt" >/dev/null
./target/release/interleave-sim sweep --artifact smoke --checkpoint-dir "$shard_ckpt" \
  --json "$tmpdir/assembled" >"$tmpdir/assemble.log" 2>&1
if ! grep -Eq '^smoke: ([0-9]+) cells \(\1 resumed from checkpoints\)' "$tmpdir/assemble.log"; then
  echo "check.sh: assembling the shard checkpoints recomputed cells:" >&2
  cat "$tmpdir/assemble.log" >&2
  exit 1
fi
scripts/determinism_gate.sh "$tmpdir/assembled" "$tmpdir/unprofiled"
echo "check.sh: shard smoke ok (2-way shard checkpoints assembled byte-identical)"

# Serve smoke: the daemon round-trip contract (see the function above).
serve_smoke

if [ "$validate" -eq 1 ]; then
  # Overhead budget: the same smoke grid with every checker enabled
  # must stay under 2x the plain wall-clock (plus 500ms of slack —
  # these runs are short enough for scheduler noise to matter).
  base_ms="$(bench_wall_ms "$tmpdir/BENCH_smoke.json")"
  mkdir -p "$tmpdir/validate"
  INTERLEAVE_VALIDATE=1 ./target/release/interleave-sim sweep --artifact smoke --json "$tmpdir/validate" >/dev/null
  val_ms="$(bench_wall_ms "$tmpdir/validate/BENCH_smoke.json")"
  if [ -z "$base_ms" ] || [ -z "$val_ms" ]; then
    echo "check.sh: smoke artifacts are missing wall_ms" >&2
    exit 1
  fi
  budget=$((base_ms * 2 + 500))
  if [ "$val_ms" -gt "$budget" ]; then
    echo "check.sh: validation overhead exceeds budget (${val_ms}ms vs ${base_ms}ms base, budget ${budget}ms)" >&2
    exit 1
  fi
  echo "check.sh: validation overhead ${val_ms}ms vs ${base_ms}ms base (budget ${budget}ms)"
fi

echo "check.sh: all green"
