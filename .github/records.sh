#!/usr/bin/env sh
# Record-identity gate: runs five canonical dtmsweep sweeps and checks
# that each streams exactly the pinned number of records with the
# pinned sha256. Together they cover block and grid models, the
# cached and dense solvers, the degraded-TSV stress scenario, DPM,
# lifetime tracking, replicates, the MPC policies, and lockstep groups
# that mix run durations. A refactor that claims to keep records
# byte-identical must pass this unchanged; a deliberate physics or
# policy change updates the pins in the same commit and says why.
#
# The pins hold for the Go release named in go.mod, so CI runs this
# with go-version-file: go.mod. They were taken on amd64 CPUs with AVX
# and FMA, as GitHub's amd64 runners have: math.Exp takes an FMA code
# path there, and a CPU without FMA may differ in the last bits.
#
# Run from the repo root: sh .github/records.sh
# Needs: go, sha256sum.
set -eu

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

go build -o "$WORKDIR/dtmsweep" ./cmd/dtmsweep

fail=0
# check <records> <sha256> <dtmsweep flags...>
check() {
	want_n=$1
	want_sum=$2
	shift 2
	"$WORKDIR/dtmsweep" -out jsonl -canonical "$@" >"$WORKDIR/out.jsonl" 2>"$WORKDIR/err.txt" || {
		echo "FAIL: dtmsweep $* exited non-zero:" >&2
		cat "$WORKDIR/err.txt" >&2
		fail=1
		return 0
	}
	n=$(wc -l <"$WORKDIR/out.jsonl" | tr -d ' ')
	sum=$(sha256sum "$WORKDIR/out.jsonl" | cut -d' ' -f1)
	if [ "$n" != "$want_n" ] || [ "$sum" != "$want_sum" ]; then
		echo "FAIL: dtmsweep -out jsonl -canonical $*" >&2
		echo "  got  $n records, sha256 $sum" >&2
		echo "  want $want_n records, sha256 $want_sum" >&2
		fail=1
		return 0
	fi
	echo "ok: $n records $sum"
}

check 280 39e9512bbdaee90a08beefca9154183fde139be9cf7d24a321ef9d4cb47583f6 \
	-exps 1,3 -grid 4x4 -stress -reliability -dpm -solver cached,dense \
	-benchmarks 'Web-med,Web&DB' -duration 10 -workers 2
check 588 e225b1ad25c03b0e064ead323a23eb96d1f301de2e35821e84524f2106eb143c \
	-exps 1,3,4 -grid 16x16 -stress -reliability -dpm -duration 30 -replicates 2 \
	-benchmarks 'Web-med,Web&DB,gcc' -workers 2
check 56 b8102df130d2946a44b7c1b0e786d5d2074d456d3a57d17b2001572f0039f040 \
	-exps 1,3 -benchmarks 'Web-med,Web&DB' -duration 300 -workers 2
check 224 4b16f23aa8afc4602f904e4665ffd19df864d9157c4c6c152bc71ee8db915f1b \
	-exps 1,2,3,4 -benchmarks 'Web-high,Database,gcc,MPlayer&Web' -duration 120 \
	-dpm -reliability -workers 2
check 32 3228d52cf9a0271f876aa633c6c1149b2aee1a7e7f347f6eb89039e8ef7bba33 \
	-exps 1,2 -durations 5,12 -policies Default,DVFS_TT,MPC_Rel,Adapt3D \
	-benchmarks 'Web-med,gcc' -reliability -dpm -workers 2

if [ "$fail" != 0 ]; then
	echo "record identity: FAIL" >&2
	exit 1
fi
echo "record identity: PASS"
