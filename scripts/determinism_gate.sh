#!/usr/bin/env bash
# Nightly determinism gate: the parallel multiprocessor driver
# (`--mp-jobs`) is a pure host optimization, so two sweep runs that
# differ only in that knob must produce identical simulated artifacts.
# The same contract covers distributed sweeps: a whole-grid sweep over
# the checkpoints of a full `--shard K/N` set must reproduce the
# single-process output.
#
#   scripts/determinism_gate.sh <dir A> <dir B>
#
# The gate compares every METRICS_*.json present in dir A
# byte-for-byte against dir B, and every BENCH_*.json with the
# host-side volatile keys (unix_timestamp, jobs, wall_ms,
# sim_cycles_per_sec) stripped — those describe the machine that ran
# the sweep, not the simulated results. A file present on one side but
# not the other is a failure, as is an empty directory (nothing
# compared must not read as success).
set -euo pipefail

side_a="${1:?usage: scripts/determinism_gate.sh <dir A> <dir B>}"
side_b="${2:?usage: scripts/determinism_gate.sh <dir A> <dir B>}"

# Removes the volatile host-side keys from a BENCH json: the top-level
# unix_timestamp/jobs/wall_ms/sim_cycles_per_sec lines, and the inline
# per-cell wall_ms/sim_cycles_per_sec fields.
strip_volatile() {
  sed -e '/^  "unix_timestamp"/d' \
      -e '/^  "jobs"/d' \
      -e '/^  "wall_ms"/d' \
      -e '/^  "sim_cycles_per_sec"/d' \
      -e 's/"wall_ms": [0-9]*, //g' \
      -e 's/"sim_cycles_per_sec": [0-9.]*, //g' \
      "$1"
}

compared=0
fail=0

# Compares one artifact pair; METRICS strictly, BENCH after stripping
# the volatile host keys.
compare_one() {
  local a="$1" b="$2" name="$3"
  if [ ! -f "$b" ]; then
    echo "determinism_gate: $name exists at $a but reference $b is missing" >&2
    fail=1
    return
  fi
  case "$name" in
    METRICS_*)
      if ! cmp -s "$a" "$b"; then
        echo "determinism_gate: FAIL — $name differs byte-for-byte:" >&2
        diff "$a" "$b" | head -20 >&2 || true
        fail=1
      fi
      ;;
    BENCH_*)
      if ! diff <(strip_volatile "$a") <(strip_volatile "$b") >/dev/null; then
        echo "determinism_gate: FAIL — $name differs after stripping volatile keys:" >&2
        diff <(strip_volatile "$a") <(strip_volatile "$b") | head -20 >&2 || true
        fail=1
      fi
      ;;
    *)
      echo "determinism_gate: $name is neither a BENCH_* nor a METRICS_* artifact" >&2
      fail=1
      ;;
  esac
  compared=$((compared + 1))
}

for a in "$side_a"/METRICS_*.json "$side_a"/BENCH_*.json; do
  [ -e "$a" ] || continue
  name="$(basename "$a")"
  compare_one "$a" "$side_b/$name" "$name"
done

if [ "$compared" -eq 0 ]; then
  echo "determinism_gate: no BENCH_*/METRICS_* artifacts found in $side_a" >&2
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  echo "determinism_gate: FAIL — simulated results differ between the two runs" >&2
  exit 1
fi
echo "determinism_gate: ok ($compared artifacts identical across the two runs)"
