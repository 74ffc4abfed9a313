#!/bin/sh
# fma_guard.sh fails when the compiler fused a multiply-add in this
# module's code. The Go spec lets a compiler fuse x*y + z into one
# instruction with one rounding; amd64 never does, arm64, ppc64le and
# riscv64 do, and a fused score differs in its last bits from the amd64
# one. An explicit float64(x*y) conversion forbids the fusion (DESIGN,
# "Determinism"). The script cross-compiles ./cmd/... for those three
# architectures and disassembles every function of the module (repro/...
# and the commands' main packages); any fused instruction is reported as
# "arch function file:line instruction" and fails the run. Nothing is
# allow-listed.
#
# Usage: scripts/fma_guard.sh   (from the repository root)
set -eu
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
found=0
for arch in arm64 ppc64le riscv64; do
	GOARCH=$arch go build -o "$out/$arch/" ./cmd/...
	hits=$(for bin in "$out/$arch"/*; do
		go tool objdump -s '^(repro[./]|main\.)' "$bin"
	done | awk -v arch="$arch" '
		/^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn); next }
		$4 ~ /^FN?M(ADD|SUB)/ { print arch, fn, $1, $4 }' | sort -u)
	if [ -n "$hits" ]; then
		echo "$hits"
		found=$((found + $(echo "$hits" | wc -l)))
	fi
done
if [ "$found" -gt 0 ]; then
	echo "$found fused multiply-add(s) in module code: wrap the product in float64(...)" >&2
	exit 1
fi
echo "no fused multiply-add on arm64, ppc64le or riscv64"
