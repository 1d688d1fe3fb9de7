#!/usr/bin/env bash
# CI throughput regression gate: compares the aggregate host-throughput
# rate (`sim_cycles_per_sec`) of a freshly produced BENCH artifact
# against the checked-in baseline and fails on a >30% regression.
#
#   scripts/throughput_gate.sh <current BENCH json | artifact dir> [<baseline json>]
#                              [<baseline key>] [<current PROFILE json>]
#                              [<baseline phases json>]
#
# The first argument may be a directory, in which case the gate
# resolves the single BENCH_*.json inside it explicitly. Zero or
# multiple candidates are a hard failure.
#
# The optional third argument names the baseline-file key to compare
# against (default `sim_cycles_per_sec`, the uniprocessor smoke rate;
# the full tier passes `table10_adaptive_sim_cycles_per_sec` to gate
# the multiprocessor loop against the same baseline file).
#
# A baseline key ending in `_ms` flips the gate into latency mode:
# lower is better, the current document must carry the same key (e.g.
# the `SERVE_*.json` round-trip timing `submit --json` writes, gated
# via `serve_cached_roundtrip_ms`), and the gate fails when the current
# value exceeds baseline / 0.7 — the same 30% headroom as the rate
# gate, applied on the latency axis. Pass the current document as a
# file in this mode; directory resolution targets BENCH artifacts.
#
# The optional fourth/fifth arguments attribute the verdict to host
# phases: both are `interleave-profile-v1` documents (as written by
# `interleave-sim sweep --profile --json DIR`).
# On a rate failure the gate names the phase whose share of the wall
# clock grew the most against the baseline profile (default
# `ci/baseline_phases.json`); on a pass it prints the current phase
# table (share of wall, calls) so CI logs always carry the attribution
# data a later regression hunt needs.
#
# The gate also checks `ci/perf_history.jsonl` (one JSON object per
# line: `rev`, `host`, rates under the baseline file's key names, and
# the parent's medians as `parent_<key>`, measured alternately with the
# line's own rates on the same host). Each line is compared only with
# the parent medians it records: lines from different sessions are not
# comparable, because host drift between sessions exceeds most changes.
# A line more than 10% below its own parent prints a warning naming its
# rev; lines without `parent_<key>` are skipped. The check never fails
# the gate: the history records accepted changes, not this build.
#
# A missing or malformed rate on either side is a hard failure — an
# artifact without the key means the instrumentation came unwired, which
# is exactly the regression this gate exists to catch (an earlier
# version of check.sh passed silently in that case).
set -euo pipefail

current_json="${1:?usage: scripts/throughput_gate.sh <current BENCH json> [<baseline json>] [<baseline key>] [<current PROFILE json>] [<baseline phases json>]}"
baseline_json="${2:-$(dirname "$0")/../ci/baseline_smoke.json}"
baseline_key="${3:-sim_cycles_per_sec}"
current_profile="${4:-}"
baseline_phases="${5:-$(dirname "$0")/../ci/baseline_phases.json}"

# Resolve a directory argument to the one BENCH artifact it holds.
# Explicit globbing: zero or several matches fail with a message naming
# the fix, instead of `head -1`-style silent arbitration.
if [ -d "$current_json" ]; then
  dir="$current_json"
  benches=()
  for f in "$dir"/BENCH_*.json; do [ -e "$f" ] && benches+=("$f"); done
  if [ "${#benches[@]}" -eq 0 ]; then
    echo "throughput_gate: no BENCH_*.json artifact in $dir" >&2
    exit 1
  fi
  if [ "${#benches[@]}" -gt 1 ]; then
    echo "throughput_gate: FAIL — $dir holds ${#benches[@]} BENCH artifacts; pass the one to gate explicitly:" >&2
    printf '  %s\n' "${benches[@]}" >&2
    exit 1
  fi
  current_json="${benches[0]}"
fi

extract_rate() {
  # Prints the first top-level occurrence of the key, or fails loudly.
  local file="$1" key="$2" val
  if [ ! -f "$file" ]; then
    echo "throughput_gate: no such file: $file" >&2
    return 1
  fi
  val="$(grep -o "\"$key\": *[0-9.]*" "$file" | head -1 | sed 's/.*: *//')"
  if [ -z "$val" ]; then
    echo "throughput_gate: $file is missing \"$key\"" >&2
    return 1
  fi
  printf '%s\n' "$val"
}

# Names the phase whose self-time share of the wall clock grew the most
# from the baseline profile to the current one. Relies on the
# interleave-profile-v1 layout: one `{"name": ..., "self_ns": ...}`
# object per line, plus a top-level `"wall_ns"` scalar.
attribute_phase() {
  local base="$1" cur="$2"
  awk '
    FNR == 1 { file++ }
    /"wall_ns":/ { w = $2; gsub(/[^0-9]/, "", w); wall[file] = w + 0 }
    /"name":/ {
      line = $0
      name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      self = line; sub(/.*"self_ns": /, "", self); sub(/[^0-9].*/, "", self)
      if (wall[file] > 0) share[file "," name] = (self + 0) / wall[file]
      names[name] = 1
    }
    END {
      worst = ""; growth = 0
      for (n in names) {
        d = share[2 "," n] - share[1 "," n]
        if (d > growth) { growth = d; worst = n }
      }
      if (worst != "")
        printf "%s (+%.1fpp of wall: %.1f%% -> %.1f%%)\n", \
          worst, growth * 100, share[1 "," worst] * 100, share[2 "," worst] * 100
    }
  ' "$base" "$cur"
}

# Prints the current profile's phases as a table: self share of wall,
# self ms, and call count, largest share first.
phase_table() {
  local cur="$1"
  awk '
    /"wall_ns":/ { w = $2; gsub(/[^0-9]/, "", w); wall = w + 0 }
    /"name":/ {
      line = $0
      name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      self = line; sub(/.*"self_ns": /, "", self); sub(/[^0-9].*/, "", self)
      calls = line; sub(/.*"calls": /, "", calls); sub(/[^0-9].*/, "", calls)
      if (wall > 0)
        printf "%7.2f%% %10.1fms %10d  %s\n", \
          (self + 0) / wall * 100, (self + 0) / 1e6, calls + 0, name
    }
  ' "$cur" | sort -rn
}

# Latency keys (`*_ms`) invert the verdict: the current document
# carries the same key as the baseline, and lower is better.
case "$baseline_key" in
  *_ms)
    current="$(extract_rate "$current_json" "$baseline_key")"
    baseline="$(extract_rate "$baseline_json" "$baseline_key")"
    ceiling="$(awk -v b="$baseline" 'BEGIN { printf "%.1f", b / 0.7 }')"
    if awk -v cur="$current" -v base="$baseline" \
        'BEGIN { exit (cur + 0 <= base / 0.7) ? 0 : 1 }'; then
      echo "throughput_gate: ok (${current}ms vs baseline $baseline_key=${baseline}ms, ceiling ${ceiling}ms)"
      exit 0
    fi
    echo "throughput_gate: FAIL — ${current}ms exceeds the $baseline_key ceiling of ${ceiling}ms (baseline ${baseline}ms)" >&2
    echo "throughput_gate: if this is an accepted slowdown, re-baseline ci/baseline_smoke.json (see EXPERIMENTS.md)" >&2
    exit 1
    ;;
esac

# Compares every history line's rate for key `$1` with the
# `parent_$1` median recorded in the same line; warns (never fails) on
# a line more than 10% below its parent and prints the newest
# comparison.
history_check() {
  local key="$1" history
  history="$(dirname "$0")/../ci/perf_history.jsonl"
  [ -f "$history" ] || return 0
  awk -v key="$key" '
    # The number after "k": on this line, or "" when the key is absent.
    # The leading quote keeps "k" from matching inside "parent_k".
    function num(k,   m) {
      if (!match($0, "\"" k "\": *[0-9.]+")) return ""
      m = substr($0, RSTART, RLENGTH); sub(/.*: */, "", m); return m
    }
    NF {
      cur = num(key); par = num("parent_" key)
      if (cur == "" || par == "" || par + 0 == 0) next
      rev = "?"
      if (match($0, /"rev": *"[^"]*"/)) {
        rev = substr($0, RSTART, RLENGTH); sub(/^"rev": *"/, "", rev); sub(/"$/, "", rev)
      }
      change = (cur / par - 1) * 100
      if (cur + 0 < par * 0.9)
        printf "throughput_gate: WARNING — ci/perf_history.jsonl line %d (%s): %s=%s is %.1f%% below its parent median %s\n", \
          NR, rev, key, cur, -change, par > "/dev/stderr"
      last = sprintf("throughput_gate: history: %s: %s=%s vs its parent %s (%+.1f%%)", rev, key, cur, par, change)
    }
    END { if (last != "") print last }
  ' "$history"
}

current="$(extract_rate "$current_json" sim_cycles_per_sec)"
baseline="$(extract_rate "$baseline_json" "$baseline_key")"
history_check "$baseline_key"

# Pass iff current >= 0.7 * baseline (awk handles the floats; its exit
# status carries the verdict).
if awk -v cur="$current" -v base="$baseline" \
    'BEGIN { exit (cur + 0 >= base * 0.7) ? 0 : 1 }'; then
  echo "throughput_gate: ok ($current cycles/sec vs baseline $baseline_key=$baseline, floor $(awk -v b="$baseline" 'BEGIN { printf "%.1f", b * 0.7 }'))"
  if [ -n "$current_profile" ] && [ -f "$current_profile" ]; then
    echo "throughput_gate: phase table (self share of wall / self ms / calls):"
    phase_table "$current_profile"
  fi
else
  echo "throughput_gate: FAIL — $current cycles/sec is more than 30% below the baseline $baseline_key=$baseline" >&2
  if [ -n "$current_profile" ] && [ -f "$current_profile" ] && [ -f "$baseline_phases" ]; then
    culprit="$(attribute_phase "$baseline_phases" "$current_profile" || true)"
    if [ -n "$culprit" ]; then
      echo "throughput_gate: phase with the largest share growth: $culprit" >&2
    else
      echo "throughput_gate: no phase grew its share of wall vs $baseline_phases" >&2
    fi
  fi
  echo "throughput_gate: if this is an accepted slowdown, re-baseline ci/baseline_smoke.json (see EXPERIMENTS.md)" >&2
  exit 1
fi
