#!/usr/bin/env bash
# bench.sh — the repo's benchmark + artifact pipeline.
#
# Runs the simulation-kernel microbenchmarks, the HMC request-path
# benchmark and the table/figure reproduction benchmarks, times a
# full-registry `cmd/figures -quick -ext` pass (all 58 experiments, the
# set the hmcbench figures-quick workload runs), and writes:
#
#   $OUT/kernel.txt         raw `go test -bench` output for the kernel,
#                           for one closed-loop HMC read through
#                           mem.HMC (BenchmarkHMCRequest), for one
#                           port-monitor completion record
#                           (BenchmarkMonitorRecord) and for one request
#                           through nine closed-loop gups.Port issue
#                           loops (BenchmarkPortRequest, with its
#                           events/req)
#                           (benchstat-comparable; feed two of these to
#                           `benchstat old.txt new.txt`)
#   $OUT/figures_bench.txt  raw output for the table/figure benchmarks
#   $OUT/BENCH_kernel.json  machine-readable summary: per-benchmark
#                           ns/op, B/op, allocs/op plus the figures
#                           wall time (figures_quick_ext_wall_s) and
#                           build metadata
#   $OUT/pdes.txt           raw output for the PDES shard benchmarks
#                           (shard-scaling ladder)
#   $OUT/BENCH_pdes.json    PDES summary: the ladder, the measuring
#                           host's CPU count and the 8-shard chain-16
#                           speedup
#   $OUT/cache.txt          raw output for the result-cache benchmarks
#                           (warm-hit lookup + cold/half-warm sweep)
#   $OUT/BENCH_cache.json   cache summary: warm-hit ns and the
#                           half-warm sweep speedup (cold ns / halfwarm
#                           ns over the 16-cell fidelity ladder)
#
# Usage: scripts/bench.sh [-quick] [-out DIR]
#
#   -quick   CI mode: single short pass, subset of figure benchmarks
#   -out     output directory (default: bench)
#
# Every perf PR should attach a BENCH_kernel.json (CI uploads one per
# run) so the kernel's trajectory stays measured, not anecdotal; the
# committed bench/BENCH_kernel.json holds the latest full-mode numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
out="bench"
while [ $# -gt 0 ]; do
  case "$1" in
    -quick) quick=1 ;;
    -out)
      [ $# -ge 2 ] || { echo "usage: $0 [-quick] [-out DIR]" >&2; exit 2; }
      out="$2"; shift ;;
    *) echo "usage: $0 [-quick] [-out DIR]" >&2; exit 2 ;;
  esac
  shift
done
mkdir -p "$out"

kernel_bench='BenchmarkEngine|BenchmarkDeliverer'
if [ "$quick" = 1 ]; then
  kernel_time=20000x
  kernel_count=1
  fig_bench='^(BenchmarkTableI|BenchmarkFigure7|BenchmarkFigure14)$'
  pdes_time=1x
  cache_hit_time=50000x
  cache_sweep_time=2x
else
  kernel_time=1s
  kernel_count=3
  fig_bench='.'
  pdes_time=3x
  cache_hit_time=1s
  cache_sweep_time=5x
fi

echo "== kernel benchmarks (benchtime $kernel_time, count $kernel_count)"
go test ./internal/sim -run '^$' -bench "$kernel_bench" \
  -benchtime "$kernel_time" -count "$kernel_count" -benchmem \
  | tee "$out/kernel.txt"
go test ./internal/mem -run '^$' -bench '^BenchmarkHMCRequest$' \
  -benchtime "$kernel_time" -count "$kernel_count" -benchmem \
  | tee -a "$out/kernel.txt"
go test ./internal/gups -run '^$' -bench '^(BenchmarkMonitorRecord|BenchmarkPortRequest)$' \
  -benchtime "$kernel_time" -count "$kernel_count" -benchmem \
  | tee -a "$out/kernel.txt"

echo "== table/figure benchmarks"
go test . -run '^$' -bench "$fig_bench" -benchtime 1x -benchmem \
  | tee "$out/figures_bench.txt"

echo "== PDES shard benchmarks (benchtime $pdes_time)"
go test . -run '^$' -bench '^BenchmarkShardScaling$' \
  -benchtime "$pdes_time" -benchmem \
  | tee "$out/pdes.txt"

echo "== result-cache benchmarks (warm hit $cache_hit_time, sweep $cache_sweep_time)"
go test ./internal/simcache -run '^$' -bench '^BenchmarkCacheWarmHit$' \
  -benchtime "$cache_hit_time" -benchmem \
  | tee "$out/cache.txt"
go test ./internal/simcache -run '^$' -bench '^BenchmarkCacheSweep$' \
  -benchtime "$cache_sweep_time" -benchmem \
  | tee -a "$out/cache.txt"

echo "== full-registry cmd/figures -quick -ext wall time"
go build -o "$out/figures.bin" ./cmd/figures
resdir="$(mktemp -d)"
t0=$(date +%s%N)
"$out/figures.bin" -quick -ext -out "$resdir" >/dev/null
t1=$(date +%s%N)
rm -rf "$resdir" "$out/figures.bin"
figures_wall=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.2f", (b-a)/1e9}')
echo "figures -quick -ext: ${figures_wall}s"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
goversion=$(go env GOVERSION)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# fold RAW KEY EXTRA [-v NAME=VALUE ...] folds raw `go test -bench`
# output into the JSON summary OUT/BENCH_KEY.json and prints it: build
# metadata, then whatever the awk fragment EXTRA prints, then every
# benchmark under KEY. Repeated counts of one benchmark are averaged.
# EXTRA computes the derived figures (ratios via ratio(key, num, den),
# means via mean(name)) so check_bench.sh can gate on them without
# re-parsing benchmark text; the -v assignments feed it.
fold() {
  local raw="$1" key="$2" extra="$3"
  shift 3
  awk -v quick="$quick" -v commit="$commit" -v goversion="$goversion" \
      -v stamp="$stamp" -v key="$key" "$@" '
    function mean(b) { return ns[b] / n[b] }
    function ratio(k, a, b) {
      if (n[a] && n[b]) printf "  \"%s\": %.2f,\n", k, mean(a) / mean(b)
    }
    /^Benchmark/ && /ns\/op/ {
      name = $1
      sub(/-[0-9]+$/, "", name)
      sub(/^Benchmark/, "", name)
      for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     { ns[name] += $i;  n[name]++ }
        if ($(i+1) == "B/op")      { bop[name] += $i }
        if ($(i+1) == "allocs/op") { aop[name] += $i }
      }
      if (!(name in seen)) { order[++cnt] = name; seen[name] = 1 }
    }
    END {
      printf "{\n"
      printf "  \"generated\": \"%s\",\n", stamp
      printf "  \"go\": \"%s\",\n", goversion
      printf "  \"commit\": \"%s\",\n", commit
      printf "  \"quick\": %s,\n", quick ? "true" : "false"
      '"$extra"'
      printf "  \"%s\": [\n", key
      for (i = 1; i <= cnt; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %.2f, \"b_per_op\": %.1f, \"allocs_per_op\": %.2f}%s\n", \
          name, mean(name), bop[name]/n[name], aop[name]/n[name], i < cnt ? "," : ""
      }
      printf "  ]\n}\n"
    }
  ' "$raw" > "$out/BENCH_$key.json"
  echo "== wrote $out/BENCH_$key.json"
  cat "$out/BENCH_$key.json"
}

fold "$out/kernel.txt" kernel 'printf "  \"figures_quick_ext_wall_s\": %s,\n", wall' \
  -v wall="$figures_wall"

# cpus records the measuring host, because a shard-scaling number from
# a 1-core box is a serialization measurement, not a parallelism one.
fold "$out/pdes.txt" pdes '
  printf "  \"cpus\": %s,\n", cpus
  ratio("chain16_speedup_8w", "ShardScaling/chain-16/w1", "ShardScaling/chain-16/w8")' \
  -v cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"

# Warming the expensive half of the fidelity ladder must make the sweep
# at least 2x faster, and a warm hit must stay microsecond-scale.
fold "$out/cache.txt" cache '
  if (n["CacheWarmHit"]) printf "  \"warm_hit_ns\": %.2f,\n", mean("CacheWarmHit")
  ratio("halfwarm_speedup", "CacheSweep/cold", "CacheSweep/halfwarm")'
