#!/bin/sh
# Runs the performance-tracking benchmarks and writes a JSON snapshot.
#
#   scripts/bench.sh [output.json]
#
# The benchmark set pairs each optimized path with its baseline
# (SimulateBlock legacy/arena, DeviceRead copy/zerocopy, RunFig4 and
# RunFig8 at workers-1/workers-auto, PickVictim indexed/reference) plus the
# MapperUpdate hot path and the end-to-end SSDRun family, so a snapshot from
# any machine carries its own before/after comparison. Compare two
# snapshots with scripts/benchdiff.sh.
set -eu
out="${1:-BENCH_PR10.json}"
cores="$(nproc)"
cores_warning=false
if [ "$cores" -le 1 ]; then
  cores_warning=true
  echo "WARNING: this runner exposes a single core — the RunFig8 workers-auto" >&2
  echo "         rows cannot show any parallel speedup here; treat their ratios" >&2
  echo "         as meaningless and re-collect on a multi-core machine before" >&2
  echo "         drawing conclusions." >&2
fi
pattern='BenchmarkSimulateBlock|BenchmarkDeviceRead|BenchmarkRunFig4|BenchmarkRunFig8$|BenchmarkMapperUpdate|BenchmarkSSDRun$|BenchmarkPickVictim'
benchtime="${BENCHTIME:-20x}"

raw=$(go test -run=NONE -bench="$pattern" -benchmem -benchtime="$benchtime" .)
echo "$raw"

printf '%s\n' "$raw" | awk \
  -v nproc="$cores" -v gomaxprocs="${GOMAXPROCS:-$cores}" -v coreswarn="$cores_warning" '
  /^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = $3; bop = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
      if ($(i+1) == "B/op") bop = $i
      if ($(i+1) == "allocs/op") allocs = $i
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
      name, ns, bop, allocs
  }
  END {
    printf "\n  ],\n  \"cpu\": \"%s\",\n  \"cores\": %s,\n  \"gomaxprocs\": %s,\n  \"cores_warning\": %s\n}\n", cpu, nproc, gomaxprocs, coreswarn
  }
  BEGIN { printf "{\n  \"benchmarks\": [\n" }
' > "$out"
echo "wrote $out"
