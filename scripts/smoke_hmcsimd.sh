#!/usr/bin/env bash
# smoke_hmcsimd.sh — end-to-end smoke test of the simulation service.
#
# Builds cmd/hmcsimd and cmd/figures, starts the server on an
# ephemeral port, and checks the service's external contracts:
#
#   1. POST /v1/run twice with the same scenario: the first response
#      is a cache miss, the second a hit, and the bodies are
#      byte-identical (the content-addressed cache serves the very
#      bytes the cold run produced).
#   2. cmd/figures -serve-check: a scn-* experiment replayed through
#      the server matches the registry's own report byte for byte,
#      plain, under a traffic/SLO overlay, and under fault injection.
#   3. Invalid options (a fault plan Run rejects, and a NaN duration
#      that once overflowed the stack and killed the server) get 400,
#      not 500, and the server still answers /healthz afterwards.
#   4. Graceful shutdown mid-job: SIGTERM while an async sweep is
#      running drains through the context plumbing and exits 0.
#
# Usage: scripts/smoke_hmcsimd.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
srv_pid=""
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/hmcsimd" ./cmd/hmcsimd
go build -o "$work/figures" ./cmd/figures

start_server() { # start_server [extra flags...] -> sets srv_pid and addr
  "$work/hmcsimd" -addr 127.0.0.1:0 "$@" > "$work/server.log" 2>&1 &
  srv_pid=$!
  addr=""
  for _ in $(seq 100); do
    addr=$(awk '/listening on/{print $4; exit}' "$work/server.log" 2>/dev/null || true)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "smoke_hmcsimd: server did not start"; cat "$work/server.log"; exit 1; }
  echo "== server up at $addr (pid $srv_pid)"
}

start_server

req='{"name": "uniform", "options": {"warmup_us": 30, "measure_us": 100, "seed": 1}}'

echo "== 1. miss then hit, byte-identical"
curl -sS -D "$work/h1" -o "$work/b1" -X POST -d "$req" "http://$addr/v1/run"
curl -sS -D "$work/h2" -o "$work/b2" -X POST -d "$req" "http://$addr/v1/run"
grep -qi '^X-Cache: miss' "$work/h1" || { echo "smoke_hmcsimd: first request not a miss"; cat "$work/h1"; exit 1; }
grep -qi '^X-Cache: hit' "$work/h2" || { echo "smoke_hmcsimd: second request not a hit"; cat "$work/h2"; exit 1; }
cmp "$work/b1" "$work/b2" || { echo "smoke_hmcsimd: cached body differs from fresh body"; exit 1; }
echo "   ok: $(wc -c < "$work/b1") bytes, miss -> hit"

echo "== 2. figures -serve-check against the server"
"$work/figures" -quick -serve-check "http://$addr" -id scn-uniform
"$work/figures" -quick -serve-check "http://$addr" -id scn-uniform -traffic open:2 -slo-ns 1500
"$work/figures" -quick -serve-check "http://$addr" -id scn-uniform -faults rate=0.01 -fault-retries 2 -fault-backoff-us 1

echo "== 3. invalid options are a 400"
code=$(curl -sS -o "$work/b3" -w '%{http_code}' -X POST \
  -d '{"name": "uniform", "options": {"faults": {"plan": "rate=9"}}}' "http://$addr/v1/run")
[ "$code" = 400 ] || { echo "smoke_hmcsimd: bad fault plan answered $code, want 400"; cat "$work/b3"; exit 1; }
echo "   ok: $(cat "$work/b3")"
code=$(curl -sS -o "$work/b3" -w '%{http_code}' -X POST \
  -d '{"name":"uniform","options":{"faults":{"plan":"retry=NaNus"}}}' "http://$addr/v1/run")
[ "$code" = 400 ] || { echo "smoke_hmcsimd: NaN fault duration answered $code, want 400"; cat "$work/b3"; exit 1; }
echo "   ok: $(cat "$work/b3")"
code=$(curl -sS -o "$work/b3" -w '%{http_code}' "http://$addr/healthz")
[ "$code" = 200 ] || { echo "smoke_hmcsimd: /healthz answered $code after the NaN request, want 200"; cat "$work/b3"; exit 1; }
echo "   ok: still healthy"

echo "== 4. graceful shutdown mid-job"
job=$(curl -sS -X POST -d '{
  "name": "uniform",
  "options": {"warmup_us": 30},
  "sweep": {"seeds": [1,2,3,4,5,6,7,8], "measures_us": [200, 400, 600, 800]}
}' "http://$addr/v1/jobs")
echo "   submitted: $job"
case "$job" in *'"id"'*) ;; *) echo "smoke_hmcsimd: job submission failed"; exit 1 ;; esac
kill -TERM "$srv_pid"
rc=0
wait "$srv_pid" || rc=$?
srv_pid=""
if [ "$rc" -ne 0 ]; then
  echo "smoke_hmcsimd: server exited $rc on SIGTERM mid-job"
  cat "$work/server.log"
  exit 1
fi
grep -q 'hmcsimd stopped' "$work/server.log" || { echo "smoke_hmcsimd: no clean-stop marker"; cat "$work/server.log"; exit 1; }
echo "   ok: clean exit 0 with a sweep in flight"

echo "smoke_hmcsimd: all checks passed"
