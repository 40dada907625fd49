#!/usr/bin/env sh
# Record-identity gate: runs five canonical dtmsweep sweeps and checks
# that each streams exactly the pinned number of records with the
# pinned sha256, then pins four served session streams (a log replay,
# a live stream and two checkpoint seeks) the same way. Together they cover block and grid models, two solver
# labels (every label solves on the one shared factorization, so a
# dense-labelled record is its cached twin relabelled), the
# degraded-TSV stress scenario, DPM, lifetime tracking, replicates, the
# MPC policies, and lockstep groups that mix run durations and solver
# labels. A refactor that claims to keep records
# byte-identical must pass this unchanged; a deliberate physics or
# policy change updates the pins in the same commit and says why.
#
# The session tests compare a live stream with its replay inside one
# build, so a change that alters both sides alike passes them; the
# session pins hold those bytes across commits.
#
# The pins hold for the Go release named in go.mod, so CI runs this
# with go-version-file: go.mod. They were taken on amd64 CPUs with AVX
# and FMA, as GitHub's amd64 runners have: math.Exp takes an FMA code
# path there, and a CPU without FMA may differ in the last bits.
#
# Run from the repo root: sh .github/records.sh
# Needs: go, curl, sha256sum.
set -eu

WORKDIR=$(mktemp -d)
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

go build -o "$WORKDIR/dtmsweep" ./cmd/dtmsweep
go build -o "$WORKDIR/dtmserved" ./cmd/dtmserved

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

check 280 b42c974f1e98d53aef1e00443d2ab4575b539516db5f6edb48232e03b8e674d6 \
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

# Session pins. The job runs EXP-2 under MPC_Rel with wear tracking
# for 30 ticks at frame cadence 2. The replay pin posts an inline log
# whose events land mid-run: a migration, a TSV failure, a workload
# splice, a swap to a hybrid policy and a tail migration. The live pin
# opens the same job with checkpoints every 4 ticks and posts the same
# events before streaming, so each lands at tick 0 and the stream does
# not depend on timing. The seek pin re-streams that session from tick
# 11: it restores the tick-8 checkpoint after silently re-applying the
# structural events (fail_tsv, set_workload) from tick 0. The seek0 pin
# re-streams it from tick 3 through the boundary-0 checkpoint, which
# Open took before those events: the restored engine then applies
# fail_tsv, set_workload, set_policy and both migrations itself, so the
# degraded model takes over restored integrator state.
"$WORKDIR/dtmserved" -addr 127.0.0.1:0 -addr-file "$WORKDIR/addr.txt" -workers 2 \
	>"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!
i=0
while [ ! -s "$WORKDIR/addr.txt" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ] || ! kill -0 "$SERVER_PID" 2>/dev/null; then
		echo "FAIL: dtmserved did not start:" >&2
		cat "$WORKDIR/server.log" >&2
		exit 1
	fi
	sleep 0.1
done
URL="http://$(cat "$WORKDIR/addr.txt")"

# pin <name> <sha256> <file>
pin() {
	sum=$(sha256sum "$3" | cut -d' ' -f1)
	if [ "$sum" != "$2" ]; then
		echo "FAIL: session $1 stream: sha256 $sum, want $2" >&2
		fail=1
		return 0
	fi
	echo "ok: session $1 $(wc -c <"$3" | tr -d ' ') bytes $sum"
}

JOB='{"scenario":{"exp":"EXP-2"},"policy":"MPC_Rel","bench":"Web-high","seed":4,"duration_s":3,"reliability":true}'
# One event a line, after the tick the replay log applies it at.
cat >"$WORKDIR/events.txt" <<'EOF'
3 {"type":"migrate","from":0,"to":5}
7 {"type":"fail_tsv","factor":1.5}
12 {"type":"set_workload","bench":"Web&DB","seed":2}
17 {"type":"set_policy","policy":"Adapt3D&DVFS_TT"}
22 {"type":"migrate","from":2,"to":6,"tail":true}
EOF

echo '{"type":"session","job":'"$JOB"',"cadence_ticks":2}' >"$WORKDIR/session.ndjson"
seq=0
while read -r tick ev; do
	echo '{"type":"event","tick":'"$tick"',"seq":'"$seq"',"event":'"$ev"'}' >>"$WORKDIR/session.ndjson"
	seq=$((seq + 1))
done <"$WORKDIR/events.txt"
curl -sf --data-binary @"$WORKDIR/session.ndjson" "$URL/v1/session/replay" \
	>"$WORKDIR/replay.sse" || { echo "FAIL: session replay request" >&2; fail=1; }
pin replay ca96a99294d3ce465c72d0bfdc7780299f814515eee8cc465e8e51606f02884a "$WORKDIR/replay.sse"

SID=$(curl -sf -d '{"job":'"$JOB"',"cadence_ticks":2,"checkpoint_ticks":4}' "$URL/v1/session" |
	sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
while read -r tick ev; do
	curl -sf -d "$ev" "$URL/v1/session/$SID/event" >/dev/null ||
		{ echo "FAIL: session event $ev" >&2; fail=1; }
done <"$WORKDIR/events.txt"
curl -sfN "$URL/v1/session/$SID/stream" >"$WORKDIR/live.sse" ||
	{ echo "FAIL: session stream request" >&2; fail=1; }
pin live 1da4c35a7d154e96ae330f0acb7a5ca027da058887784127a35997e9f27a716d "$WORKDIR/live.sse"
curl -sf "$URL/v1/session/$SID/replay?from_tick=11" >"$WORKDIR/seek.sse" ||
	{ echo "FAIL: session seek request" >&2; fail=1; }
pin seek 9556cb7204aa972841e2ce896ee2985db4acb990b79e34ecfa19b879dd512aee "$WORKDIR/seek.sse"
curl -sf "$URL/v1/session/$SID/replay?from_tick=3" >"$WORKDIR/seek0.sse" ||
	{ echo "FAIL: session seek0 request" >&2; fail=1; }
pin seek0 b458d0c4d408b0089d1f1fb050c6843ed640fa358b7a0e92e5633f31719206eb "$WORKDIR/seek0.sse"

if [ "$fail" != 0 ]; then
	echo "record identity: FAIL" >&2
	exit 1
fi
echo "record identity: PASS"
