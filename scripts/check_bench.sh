#!/usr/bin/env bash
# check_bench.sh — the bench-regression gate.
#
# Compares a fresh BENCH_kernel.json (normally the quick-mode artifact
# scripts/bench.sh just wrote) against the committed baseline and
# fails if the Handler-path scheduling benchmark regressed by more
# than the threshold. The Handler path is the kernel's contract — the
# one number every hot scheduling site depends on — so it alone gates;
# the rest of the file is trajectory data.
#
# A NEW.json whose basename contains "pdes" switches to the PDES gate
# instead: the one-worker shard ladder entry must not regress against
# the committed baseline, and — only on hosts with >= 4 cores, where
# parallelism is physically possible — the 8-worker chain-16 speedup
# must clear its floor.
#
# A basename containing "cache" switches to the result-cache gate: a
# warm-hit lookup must stay under an absolute ceiling (the service's
# "answered without re-simulating" contract, so the gate is absolute,
# not baseline-relative — ns-scale lookups drown in cross-host noise),
# and warming the expensive half of the benchmark's fidelity-ladder
# sweep must make the whole sweep at least CACHE_SPEEDUP_MIN faster.
#
# Usage: scripts/check_bench.sh NEW.json [BASELINE.json]
#
#   BASELINE.json   default: bench/BENCH_kernel.json (committed), or
#                   bench/BENCH_pdes.json in PDES mode (unused by the
#                   cache gate, which is absolute)
#   BENCH_TOLERANCE max allowed regression, percent (default 20 —
#                   wide enough for shared-runner noise, narrow
#                   enough to catch a lost fast path; PDES mode
#                   defaults to 35: whole-scenario runs are noisier
#                   than kernel microbenchmarks)
#   PDES_SPEEDUP_MIN   min 8-worker chain-16 speedup on >=4-core hosts
#                      (default 1.5)
#   WARM_HIT_MAX_NS    max warm-hit lookup cost in ns (default 50000 —
#                      50 us, "microseconds not milliseconds"; the
#                      measured cost is tens of ns)
#   CACHE_SPEEDUP_MIN  min half-warm sweep speedup (default 2.0)
set -euo pipefail
cd "$(dirname "$0")/.."

new="${1:?usage: $0 NEW.json [BASELINE.json]}"

extract() { # extract FILE NAME -> ns_per_op
  awk -v name="$2" '
    $0 ~ "\"name\": \"" name "\"," {
      if (match($0, /"ns_per_op": [0-9.]+/)) {
        print substr($0, RSTART + 13, RLENGTH - 13)
        exit
      }
    }
  ' "$1"
}

field() { # field FILE KEY -> bare numeric value (empty if absent)
  awk -v key="$2" '
    $0 ~ "\"" key "\":" {
      if (match($0, /: -?[0-9.]+/)) {
        print substr($0, RSTART + 2, RLENGTH - 2)
        exit
      }
    }
  ' "$1"
}

case "$(basename "$new")" in
*pdes*)
  base="${2:-bench/BENCH_pdes.json}"
  tol="${BENCH_TOLERANCE:-35}"
  speedup_min="${PDES_SPEEDUP_MIN:-1.5}"
  bench="ShardScaling/chain-16/w1"

  cpus=$(field "$new" "cpus")
  speedup=$(field "$new" "chain16_speedup_8w")
  [ -n "$speedup" ] || { echo "check_bench: chain16_speedup_8w missing from $new" >&2; exit 1; }
  if [ "${cpus:-1}" -ge 4 ]; then
    awk -v s="$speedup" -v min="$speedup_min" -v c="$cpus" 'BEGIN {
      printf "check_bench: chain-16 8-worker speedup %.2fx on %s cores (floor %sx)\n", s, c, min
      if (s < min) {
        printf "check_bench: shard mesh not scaling on a multi-core host\n" > "/dev/stderr"
        exit 1
      }
    }'
  else
    echo "check_bench: chain-16 8-worker speedup ${speedup}x on ${cpus:-1} core(s); speedup floor needs >= 4 cores, skipping"
  fi

  old_ns=$(extract "$base" "$bench")
  new_ns=$(extract "$new" "$bench")
  [ -n "$old_ns" ] || { echo "check_bench: $bench missing from baseline $base" >&2; exit 1; }
  [ -n "$new_ns" ] || { echo "check_bench: $bench missing from $new" >&2; exit 1; }
  awk -v old="$old_ns" -v new="$new_ns" -v tol="$tol" -v bench="$bench" 'BEGIN {
    pct = (new - old) / old * 100
    printf "check_bench: %s %.0f -> %.0f ns/op (%+.1f%%, tolerance +%s%%)\n", bench, old, new, pct, tol
    if (pct > tol) {
      printf "check_bench: one-worker shard run regressed beyond tolerance\n" > "/dev/stderr"
      exit 1
    }
  }'
  exit 0
  ;;
*cache*)
  hit_max="${WARM_HIT_MAX_NS:-50000}"
  speedup_min="${CACHE_SPEEDUP_MIN:-2.0}"

  hit=$(field "$new" "warm_hit_ns")
  [ -n "$hit" ] || { echo "check_bench: warm_hit_ns missing from $new" >&2; exit 1; }
  awk -v h="$hit" -v max="$hit_max" 'BEGIN {
    printf "check_bench: warm-hit lookup %.0f ns (ceiling %s ns)\n", h, max
    if (h > max) {
      printf "check_bench: warm cache hit is no longer microsecond-scale\n" > "/dev/stderr"
      exit 1
    }
  }'

  speedup=$(field "$new" "halfwarm_speedup")
  [ -n "$speedup" ] || { echo "check_bench: halfwarm_speedup missing from $new" >&2; exit 1; }
  awk -v s="$speedup" -v min="$speedup_min" 'BEGIN {
    printf "check_bench: half-warm sweep speedup %.2fx (floor %sx)\n", s, min
    if (s < min) {
      printf "check_bench: cache no longer pays for itself on a half-warm sweep\n" > "/dev/stderr"
      exit 1
    }
  }'
  exit 0
  ;;
esac

base="${2:-bench/BENCH_kernel.json}"
tol="${BENCH_TOLERANCE:-20}"
bench="EngineScheduleHandler"

old_ns=$(extract "$base" "$bench")
new_ns=$(extract "$new" "$bench")
[ -n "$old_ns" ] || { echo "check_bench: $bench missing from baseline $base" >&2; exit 1; }
[ -n "$new_ns" ] || { echo "check_bench: $bench missing from $new" >&2; exit 1; }

awk -v old="$old_ns" -v new="$new_ns" -v tol="$tol" -v bench="$bench" 'BEGIN {
  pct = (new - old) / old * 100
  printf "check_bench: %s %.2f -> %.2f ns/op (%+.1f%%, tolerance +%s%%)\n", bench, old, new, pct, tol
  if (pct > tol) {
    printf "check_bench: Handler-path regression beyond tolerance\n" > "/dev/stderr"
    exit 1
  }
}'
