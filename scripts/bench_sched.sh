#!/bin/sh
# Scheduler micro-benchmarks: the token ping-pong (BenchmarkTokenHandoff)
# at 1 and 4 arbitration shards, the thread fork/join lifecycle
# (BenchmarkForkJoin) legacy vs pooled, and the per-shard granting sweep
# (BenchmarkGrantParallel at 1/2/4/8 shards; see docs/scheduler.md).
# Emits BENCH_sched.json in the repo root — machine-readable ns/op so
# perf regressions in the scheduler hot paths are diffable across commits
# (scripts/check.sh compares a fresh run against the committed file with a
# tolerance band). Run via `make bench-sched` or scripts/check.sh (smoke
# iterations there; the default here is larger).
set -eu

cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2000x}"
out="${1:-BENCH_sched.json}"

raw=$(go test -run=NONE -bench 'BenchmarkTokenHandoff|BenchmarkForkJoin|BenchmarkGrantParallel' \
    -benchtime "$benchtime" ./internal/det)

printf '%s\n' "$raw" | awk -v benchtime="$benchtime" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
    iters[n] = $2; ns[n] = $3; names[n] = name; n++
}
END {
    if (n == 0) { print "bench_sched: no benchmark output parsed" > "/dev/stderr"; exit 1 }
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 0; i < n; i++)
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}%s\n",
            names[i], iters[i], ns[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
}' > "$out"

echo "bench_sched: wrote $out"
cat "$out"
