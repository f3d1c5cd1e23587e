#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sync-heavy --seed 42 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.txt new.txt
#
# Run it from the repository root. The build cache, the go command's
# temporary and configuration files, the binary and the benchmark's
# scratch files all stay under the build directory ($CARGO_TARGET_DIR,
# default .bench_build) inside the checkout, and the toolchain is kept
# local and offline.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# A checkout inside a git repository that git refuses to read (another
# owner, say) fails VCS stamping; the manifest then has no commit.
go build -C "$here" -o "$out/perfbench" . 2>/dev/null ||
	go build -C "$here" -buildvcs=false -o "$out/perfbench" .
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
cd "$root"
exec "$out/perfbench" --root "$root" --scratch "$out/scratch" "$@"
