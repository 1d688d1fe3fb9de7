#!/usr/bin/env bash
# Concurrent-client soak for the serve daemon (the full-tier half of
# the CI serve-e2e job): boots `interleave-sim serve` on an ephemeral
# port with a result cache, fires N
# `submit --wait` clients in parallel with distinct (result-affecting)
# seeds, then resubmits the same wave and requires every resubmit to be
# served fully from the cache with byte-identical METRICS documents.
# The /stats page must account for every job and report cache hits.
#
#   scripts/serve_soak.sh [out_dir] [clients]
#
# Everything (server log, per-client logs, fetched artifacts) lands
# under out_dir so CI can upload it on
# failure. Requires a release build (target/release/interleave-sim).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-$(mktemp -d)}"
clients="${2:-4}"
mkdir -p "$out"
log="$out/server.log"

serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

# Create the log before backgrounding the daemon, so the address grep
# below never races the child's redirection.
: >"$log"
./target/release/interleave-sim serve --addr 127.0.0.1:0 \
  --cache-dir "$out/cache" >"$log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr="$(grep -o 'http://[0-9.]*:[0-9]*' "$log" | head -1 || true)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "serve_soak: server never reported a listening address:" >&2
  cat "$log" >&2
  exit 1
fi
addr="${addr#http://}"
echo "serve_soak: daemon on $addr, $clients concurrent clients"

# Wave 1: distinct seeds, so every job computes a distinct grid (the
# seed is result-affecting and part of the cache key).
pids=()
for i in $(seq 1 "$clients"); do
  ./target/release/interleave-sim submit --artifact smoke --scale ci \
    --seed "$((1000 + i))" --addr "$addr" --wait \
    --json "$out/client$i" >"$out/client$i.log" 2>&1 &
  pids+=("$!")
done
fail=0
for p in "${pids[@]}"; do wait "$p" || fail=1; done
if [ "$fail" -ne 0 ]; then
  echo "serve_soak: a concurrent submit failed; client logs:" >&2
  tail -n +1 "$out"/client*.log >&2
  exit 1
fi

# Wave 2: the same seeds again, concurrently. Every job must be served
# fully from the cache (the SERVE doc's cached key is written only
# then) and reproduce wave 1's METRICS document byte-for-byte.
pids=()
for i in $(seq 1 "$clients"); do
  ./target/release/interleave-sim submit --artifact smoke --scale ci \
    --seed "$((1000 + i))" --addr "$addr" --wait \
    --json "$out/recheck$i" >"$out/recheck$i.log" 2>&1 &
  pids+=("$!")
done
for p in "${pids[@]}"; do wait "$p" || fail=1; done
if [ "$fail" -ne 0 ]; then
  echo "serve_soak: a resubmit failed; client logs:" >&2
  tail -n +1 "$out"/recheck*.log >&2
  exit 1
fi
for i in $(seq 1 "$clients"); do
  if ! grep -q '"serve_cached_roundtrip_ms"' "$out/recheck$i/SERVE_smoke.json"; then
    echo "serve_soak: resubmit $i was not served from the result cache:" >&2
    cat "$out/recheck$i/SERVE_smoke.json" >&2
    exit 1
  fi
  if ! cmp -s "$out/client$i/METRICS_smoke.json" "$out/recheck$i/METRICS_smoke.json"; then
    echo "serve_soak: client $i cached METRICS differ from the fresh run" >&2
    exit 1
  fi
done

# The stats page accounts for both waves and the cache hits.
stats="$(./target/release/interleave-sim poll --stats --addr "$addr")"
done_jobs="$(printf '%s' "$stats" | grep -o '"jobs_done": [0-9]*' | sed 's/.*: //')"
hits="$(printf '%s' "$stats" | grep -o '"cache_hits": [0-9]*' | sed 's/.*: //')"
expected=$((clients * 2))
if [ "${done_jobs:-0}" -ne "$expected" ]; then
  echo "serve_soak: /stats reports jobs_done=${done_jobs:-?}, expected $expected" >&2
  printf '%s\n' "$stats" >&2
  exit 1
fi
if [ "${hits:-0}" -le 0 ]; then
  echo "serve_soak: /stats reports no cache hits after the resubmit wave" >&2
  printf '%s\n' "$stats" >&2
  exit 1
fi

kill -TERM "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
echo "serve_soak: ok ($clients clients x 2 waves, $hits cache hits, clean shutdown)"
