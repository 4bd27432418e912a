#!/usr/bin/env bash
# bench.sh — run the headline hot-path benchmarks with -benchmem and emit a
# machine-readable BENCH_<rev>.json so the performance trajectory is
# comparable PR-over-PR (CI uploads the file as a non-blocking artifact;
# results/bench/ keeps committed snapshots).
#
# After writing the fresh JSON, the script diffs it against the most recent
# prior BENCH_*.json in results/bench/ (by mtime), printing per-benchmark
# ns/op and allocs/op deltas and flagging regressions over 10 %. The delta
# report is also written next to the JSON as BENCH_<rev>.delta.txt so CI can
# upload it alongside. The diff is informational — it never fails the run —
# because ns/op on shared CI runners is noisy; the committed JSON history is
# the authoritative trajectory.
#
# Usage:
#   scripts/bench.sh                  # 1s benchtime, writes results/bench/BENCH_<rev>.json
#   BENCHTIME=100x scripts/bench.sh   # CI smoke setting
#   OUT_DIR=/tmp scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rev=$(git describe --always --dirty 2>/dev/null || echo unknown)
benchtime=${BENCHTIME:-1s}
out_dir=${OUT_DIR:-results/bench}
mkdir -p "$out_dir"
out="$out_dir/BENCH_${rev}.json"
delta_out="$out_dir/BENCH_${rev}.delta.txt"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

pattern='BenchmarkLBPacketPath$|BenchmarkSimEventThroughput|BenchmarkEstimatorPerPacket$|BenchmarkSharedLadderPerPacket$|BenchmarkFig2|BenchmarkProxyConcurrentConns|BenchmarkProxyDietConcurrentConns|BenchmarkProxyNetpollConcurrentConns|BenchmarkProxySpliceRelay|BenchmarkProxyPooledDial|BenchmarkAcceptShardParallel|BenchmarkFlowTableParallel|BenchmarkMeasurementPathParallel|BenchmarkPickParallel|BenchmarkMaglevRebuild|BenchmarkControllerObserveSharded'

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" . ./internal/perf ./internal/netsim | tee "$raw"

# Find the baseline BEFORE writing the fresh file: the most recent
# BENCH_*.json in OUT_DIR or in the committed results/bench history
# (excluding anything for this rev, so a re-run diffs against the previous
# snapshot rather than itself). CI writes to a scratch OUT_DIR, so its
# baseline is always the committed history.
baseline=""
for f in $(ls -t "$out_dir"/BENCH_*.json results/bench/BENCH_*.json 2>/dev/null | awk '!seen[$0]++'); do
    case "$f" in
    *"BENCH_${rev}.json") continue ;;
    *) baseline="$f"; break ;;
    esac
done

# Convert `go test -bench` lines into JSON: one object per benchmark, with
# every reported "<value> <unit>" pair (ns/op, B/op, allocs/op, and any
# b.ReportMetric custom units) under metrics.
awk -v rev="$rev" -v benchtime="$benchtime" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2
    m = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        if (m != "") m = m ", "
        m = m "\"" $(i+1) "\": " $(i)
    }
    if (n++) body = body ",\n"
    body = body "    {\"name\": \"" name "\", \"iters\": " iters ", \"metrics\": {" m "}}"
}
END {
    print "{"
    print "  \"rev\": \"" rev "\","
    print "  \"benchtime\": \"" benchtime "\","
    print "  \"benchmarks\": ["
    print body
    print "  ]"
    print "}"
}' "$raw" > "$out"

echo "wrote $out"

# Delta report: parse our own JSON format (one benchmark object per line in
# the "benchmarks" array) from both files and compare ns/op and allocs/op.
if [ -n "$baseline" ]; then
    awk -v base_rev="$(basename "$baseline")" -v fresh_rev="$(basename "$out")" '
    function parse(line) {
        # Extract name, ns/op, allocs/op from a single benchmark object line.
        name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = ""; al = ""
        if (match(line, /"ns\/op": [0-9.e+]+/)) {
            ns = substr(line, RSTART, RLENGTH); sub(/.*: /, "", ns)
        }
        if (match(line, /"allocs\/op": [0-9.e+]+/)) {
            al = substr(line, RSTART, RLENGTH); sub(/.*: /, "", al)
        }
    }
    FNR == 1 { fileno++ }
    /"name": / {
        parse($0)
        if (name == "") next
        if (fileno == 1) { base_ns[name] = ns; base_al[name] = al }
        else { fresh_ns[name] = ns; fresh_al[name] = al; if (!(name in seen)) { order[++cnt] = name; seen[name] = 1 } }
    }
    END {
        printf "benchmark delta: %s -> %s\n", base_rev, fresh_rev
        printf "%-55s %12s %12s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs"
        regressions = 0
        for (i = 1; i <= cnt; i++) {
            name = order[i]
            ns = fresh_ns[name]; al = fresh_al[name]
            if (!(name in base_ns)) {
                printf "%-55s %12s %12s %8s %10s\n", name, "-", ns, "new", (al == "" ? "-" : al)
                continue
            }
            old = base_ns[name] + 0; new = ns + 0
            pct = (old > 0) ? (new - old) / old * 100 : 0
            flag = ""
            if (pct > 10) { flag = "  <-- REGRESSION"; regressions++ }
            adelta = ""
            if (base_al[name] != "" && al != "") {
                da = al - base_al[name]
                adelta = (da == 0) ? al + 0 "" : sprintf("%+d", da)
                if (da > 0 && flag == "") { flag = "  <-- ALLOC REGRESSION"; regressions++ }
            }
            printf "%-55s %12.1f %12.1f %+7.1f%% %10s%s\n", name, old, new, pct, (adelta == "" ? "-" : adelta), flag
        }
        for (name in base_ns) if (!(name in fresh_ns))
            printf "%-55s %12.1f %12s %8s %10s\n", name, base_ns[name] + 0, "-", "gone", "-"
        if (regressions > 0)
            printf "\n%d benchmark(s) regressed by more than 10%% (informational; see committed history)\n", regressions
        else
            print "\nno regressions over 10%"
    }' "$baseline" "$out" | tee "$delta_out"
    echo "wrote $delta_out"
else
    echo "no prior BENCH_*.json in $out_dir; skipping delta report" | tee "$delta_out"
fi
