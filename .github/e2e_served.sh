#!/usr/bin/env sh
# End-to-end serving-layer test: boots dtmserved on a random port and
# proves the HTTP path cannot drift from the in-process path.
#
#   1. A small EXP1/EXP2 sweep streamed over HTTP is byte-identical to
#      the same spec run directly (dtmsweep -canonical), both through
#      the dtmsweep -remote client and through raw curl.
#   2. Repeating the identical request is served entirely from the
#      result cache: the hit counter increments and not one new
#      simulated tick is recorded.
#   3. SSE framing delivers every record plus a terminal done event.
#   3b. An interactive session — frames streamed live, events injected
#      mid-run — replays from its event log byte-identically (plain
#      and reliability-enabled), checkpoint seeks serve the tail only,
#      and the session metrics account for every engine.
#   4. SIGTERM drains gracefully (exit 0), closing a live session
#      mid-stream with a terminal closed event.
#   5. A 3-node cluster (booted on ephemeral ports via -peers-file,
#      swept via dtmsweep -remote a,b,c) streams byte-identically to a
#      direct run; a follow-up sweep against ONE node is served from
#      the composed cluster cache (peer-fill, zero new ticks); with a
#      node killed, the cluster stream stays byte-identical and the
#      rerouted/retry counters move.
#
# Sub-rounds of 2 additionally pin reliability streams (2b),
# model-predictive policies (2c), and declarative -stack sweeps with
# inline specs (2d) byte-identical across the HTTP path. Sub-round 5e
# replays the drained session's log on a cluster node and proves the
# closed live stream is a byte prefix of the full replay.
#
# Run from the repo root: sh .github/e2e_served.sh
# Needs: go, curl, jq.
set -eu

WORKDIR=$(mktemp -d)
SERVER_PID=""
NODE_PIDS=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	for p in $NODE_PIDS; do kill "$p" 2>/dev/null || true; done
	rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

fail() {
	echo "e2e: FAIL: $*" >&2
	[ -f "$WORKDIR/server.log" ] && sed 's/^/e2e: server: /' "$WORKDIR/server.log" >&2
	exit 1
}

echo "e2e: building binaries"
go build -o "$WORKDIR/dtmserved" ./cmd/dtmserved
go build -o "$WORKDIR/dtmsweep" ./cmd/dtmsweep

# The sweep under test: 2 scenarios x 2 policies x 1 benchmark, 2
# simulated seconds. Small enough for CI, big enough to exercise the
# pool, the cache, and multi-record streaming.
SWEEP_ARGS="-exps 1,2 -policies Default,Adapt3D -benchmarks Web-med -duration 2 -seed 1"
JOBS=4

"$WORKDIR/dtmserved" -addr 127.0.0.1:0 -addr-file "$WORKDIR/addr.txt" -workers 4 \
	>"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

i=0
while [ ! -s "$WORKDIR/addr.txt" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "server never wrote its address file"
	kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
	sleep 0.1
done
ADDR=$(cat "$WORKDIR/addr.txt")
echo "e2e: dtmserved on $ADDR (pid $SERVER_PID)"

curl -sf "http://$ADDR/healthz" >/dev/null || fail "healthz not responding"

metric() {
	curl -sf "http://$ADDR/metrics" | jq -e ".$1" || fail "metric $1 unreadable"
}

echo "e2e: 1/5 served stream vs direct run"
"$WORKDIR/dtmsweep" -out jsonl -canonical $SWEEP_ARGS \
	>"$WORKDIR/direct.jsonl" 2>/dev/null || fail "direct sweep failed"
"$WORKDIR/dtmsweep" -out jsonl -remote "http://$ADDR" $SWEEP_ARGS \
	>"$WORKDIR/remote.jsonl" 2>/dev/null || fail "remote sweep failed"
cmp -s "$WORKDIR/direct.jsonl" "$WORKDIR/remote.jsonl" ||
	fail "served records differ from the direct run (serving-layer drift)"
[ "$(wc -l <"$WORKDIR/remote.jsonl")" -eq "$JOBS" ] ||
	fail "expected $JOBS records, got $(wc -l <"$WORKDIR/remote.jsonl")"

# The same spec as a raw curl client (the JSON body mirrors the flags
# above) must produce the same bytes again.
BODY='{"spec":{"scenarios":[{"exp":"EXP-1"},{"exp":"EXP-2"}],"policies":["Default","Adapt3D"],"benchmarks":["Web-med"],"durations_s":[2],"seed":1}}'
curl -sf -d "$BODY" "http://$ADDR/v1/sweep" >"$WORKDIR/curl.jsonl" || fail "curl sweep failed"
cmp -s "$WORKDIR/direct.jsonl" "$WORKDIR/curl.jsonl" ||
	fail "curl-streamed records differ from the direct run"

echo "e2e: 2/5 repeated request is served from the result cache"
HITS0=$(metric cache_hits_total)
TICKS0=$(metric sim_ticks_total)
COMPLETED0=$(metric jobs_completed_total)
[ "$TICKS0" -gt 0 ] || fail "server recorded no simulated ticks for the first sweep"
"$WORKDIR/dtmsweep" -out jsonl -remote "http://$ADDR" $SWEEP_ARGS \
	>"$WORKDIR/remote2.jsonl" 2>/dev/null || fail "repeat remote sweep failed"
cmp -s "$WORKDIR/remote.jsonl" "$WORKDIR/remote2.jsonl" ||
	fail "cached replay differs from the first stream"
HITS1=$(metric cache_hits_total)
TICKS1=$(metric sim_ticks_total)
COMPLETED1=$(metric jobs_completed_total)
[ "$HITS1" -eq $((HITS0 + JOBS)) ] ||
	fail "cache hits went $HITS0 -> $HITS1, want +$JOBS"
[ "$TICKS1" -eq "$TICKS0" ] ||
	fail "repeat request simulated $((TICKS1 - TICKS0)) new ticks, want 0"
[ "$COMPLETED1" -eq "$COMPLETED0" ] ||
	fail "repeat request ran $((COMPLETED1 - COMPLETED0)) new jobs, want 0"

echo "e2e: 2b/5 reliability-enabled sweep is byte-identical and cache-isolated"
# Reliability flips the job identity (|rel keys), so these runs must
# NOT be served from the plain sweep's cache entries — and the rel_*
# wear fields must survive the HTTP path byte-for-byte.
RELJOBS0=$(metric reliability_jobs_total)
"$WORKDIR/dtmsweep" -out jsonl -canonical -reliability $SWEEP_ARGS \
	>"$WORKDIR/direct_rel.jsonl" 2>/dev/null || fail "direct reliability sweep failed"
"$WORKDIR/dtmsweep" -out jsonl -remote "http://$ADDR" -reliability $SWEEP_ARGS \
	>"$WORKDIR/remote_rel.jsonl" 2>/dev/null || fail "remote reliability sweep failed"
cmp -s "$WORKDIR/direct_rel.jsonl" "$WORKDIR/remote_rel.jsonl" ||
	fail "served reliability records differ from the direct run"
grep -q '"rel_worst_cycle_damage"' "$WORKDIR/remote_rel.jsonl" ||
	fail "reliability records carry no rel_* fields"
grep -q '"rel_mttf"' "$WORKDIR/remote_rel.jsonl" ||
	fail "reliability records carry no rel_mttf field"
RELJOBS1=$(metric reliability_jobs_total)
[ "$RELJOBS1" -eq $((RELJOBS0 + JOBS)) ] ||
	fail "reliability_jobs_total went $RELJOBS0 -> $RELJOBS1, want +$JOBS"

echo "e2e: 2c/5 model-predictive sweep is byte-identical served vs local"
# The MPC policies drive lockstep rollout lanes inside every decision
# epoch, so this round proves the planning path stays deterministic
# across processes: the served stream must match the direct run byte
# for byte.
MPC_ARGS="-exps 2 -policies DVFS_TT,MPC_Thermal,MPC_Rel -benchmarks Web-med -duration 2 -seed 1"
"$WORKDIR/dtmsweep" -out jsonl -canonical $MPC_ARGS \
	>"$WORKDIR/direct_mpc.jsonl" 2>/dev/null || fail "direct MPC sweep failed"
"$WORKDIR/dtmsweep" -out jsonl -remote "http://$ADDR" $MPC_ARGS \
	>"$WORKDIR/remote_mpc.jsonl" 2>/dev/null || fail "remote MPC sweep failed"
cmp -s "$WORKDIR/direct_mpc.jsonl" "$WORKDIR/remote_mpc.jsonl" ||
	fail "served MPC records differ from the direct run (nondeterministic planning?)"
# 3 requested policies + the implicit Default baseline the sweep
# normalizes performance against.
[ "$(wc -l <"$WORKDIR/remote_mpc.jsonl")" -eq 4 ] ||
	fail "expected 4 MPC-round records, got $(wc -l <"$WORKDIR/remote_mpc.jsonl")"

echo "e2e: 2d/5 declarative-stack sweep is byte-identical served vs local"
# Custom stacks travel as inline StackSpec JSON in the request body
# (dtmsweep -stack always inlines), so the server needs no registry
# entry — and the spec's content hash keys the jobs, so the stream
# must still be byte-identical to the direct run and never collide
# with the builtin EXP cache entries exercised above.
STACK_ARGS="-stack scenarios/big-little.json,scenarios/microfluidic.json -policies Default,Adapt3D -benchmarks Web-med -duration 2 -seed 1"
"$WORKDIR/dtmsweep" -out jsonl -canonical $STACK_ARGS \
	>"$WORKDIR/direct_stack.jsonl" 2>/dev/null || fail "direct stack sweep failed"
"$WORKDIR/dtmsweep" -out jsonl -remote "http://$ADDR" $STACK_ARGS \
	>"$WORKDIR/remote_stack.jsonl" 2>/dev/null || fail "remote stack sweep failed"
cmp -s "$WORKDIR/direct_stack.jsonl" "$WORKDIR/remote_stack.jsonl" ||
	fail "served stack records differ from the direct run"
[ "$(wc -l <"$WORKDIR/remote_stack.jsonl")" -eq 4 ] ||
	fail "expected 4 stack-round records, got $(wc -l <"$WORKDIR/remote_stack.jsonl")"
grep -q '"scenario":"stack:big-little#' "$WORKDIR/remote_stack.jsonl" ||
	fail "stack records do not carry the stack:name#hash scenario identity"

echo "e2e: 3/5 SSE framing"
curl -sf -H 'Accept: text/event-stream' -d "$BODY" "http://$ADDR/v1/sweep" >"$WORKDIR/sse.txt" ||
	fail "SSE sweep failed"
[ "$(grep -c '^event: record$' "$WORKDIR/sse.txt")" -eq "$JOBS" ] ||
	fail "SSE stream lost records"
grep -q '^event: done$' "$WORKDIR/sse.txt" || fail "SSE stream has no done event"

echo "e2e: 3b/5 interactive session: live stream == replayed event log"
# Open a paced 20-tick session, watch it over SSE, and steer it
# mid-run (a TSV failure, then a policy swap). The stream must end
# with a done terminal, and replaying the recorded event log through
# POST /v1/session/replay must reproduce the live stream byte for
# byte — the session-layer determinism contract.
SBODY='{"job":{"scenario":{"exp":"EXP-2"},"policy":"DVFS_TT","bench":"Web-med","seed":1,"duration_s":2},"cadence_ticks":1,"ticks_per_sec":10}'
SID=$(curl -sf -d "$SBODY" "http://$ADDR/v1/session" | jq -re .id) || fail "session open failed"
curl -sfN "http://$ADDR/v1/session/$SID/stream" >"$WORKDIR/live.sse" &
STREAM_PID=$!
sleep 0.6
curl -sf -d '{"type":"fail_tsv","factor":4}' \
	"http://$ADDR/v1/session/$SID/event" >/dev/null || fail "fail_tsv event rejected mid-run"
sleep 0.5
curl -sf -d '{"type":"set_policy","policy":"Adapt3D"}' \
	"http://$ADDR/v1/session/$SID/event" >/dev/null || fail "set_policy event rejected mid-run"
wait "$STREAM_PID" || fail "session stream client failed"
grep -q '^event: done$' "$WORKDIR/live.sse" || fail "session stream has no done terminal"
[ "$(grep -c '^event: frame$' "$WORKDIR/live.sse")" -eq 20 ] ||
	fail "session streamed $(grep -c '^event: frame$' "$WORKDIR/live.sse") frames, want 20"
curl -sf "http://$ADDR/v1/session/$SID/log" >"$WORKDIR/session.ndjson" || fail "session log fetch failed"
[ "$(wc -l <"$WORKDIR/session.ndjson")" -eq 3 ] ||
	fail "session log holds $(wc -l <"$WORKDIR/session.ndjson") records, want header + 2 events"
curl -sf --data-binary @"$WORKDIR/session.ndjson" \
	"http://$ADDR/v1/session/replay" >"$WORKDIR/replay.sse" || fail "session replay failed"
cmp -s "$WORKDIR/live.sse" "$WORKDIR/replay.sse" ||
	fail "replayed session differs from the live stream (session determinism drift)"

# Checkpoint seek: replay-from-tick-10 must serve the back half only.
curl -sf "http://$ADDR/v1/session/$SID/replay?from_tick=10" >"$WORKDIR/seek.sse" ||
	fail "session seek failed"
grep -q '"tick":10,' "$WORKDIR/seek.sse" || fail "seek stream is missing tick 10"
! grep -q '"tick":5,' "$WORKDIR/seek.sse" || fail "seek from tick 10 streamed tick 5"
grep -q '^event: done$' "$WORKDIR/seek.sse" || fail "seek stream has no done terminal"

# Reliability variant: the wear tracker rides the session, a mid-run
# TSV failure lands in the log, and the replay still matches.
RBODY='{"job":{"scenario":{"exp":"EXP-2"},"policy":"DVFS_TT","bench":"Web-med","seed":1,"duration_s":2,"reliability":true},"cadence_ticks":1,"ticks_per_sec":10}'
RSID=$(curl -sf -d "$RBODY" "http://$ADDR/v1/session" | jq -re .id) || fail "reliability session open failed"
curl -sfN "http://$ADDR/v1/session/$RSID/stream" >"$WORKDIR/live_rel.sse" &
STREAM_PID=$!
sleep 0.6
curl -sf -d '{"type":"fail_tsv","factor":4}' \
	"http://$ADDR/v1/session/$RSID/event" >/dev/null || fail "reliability fail_tsv rejected mid-run"
wait "$STREAM_PID" || fail "reliability session stream client failed"
grep -q '"rel_worst_cycle_damage"' "$WORKDIR/live_rel.sse" ||
	fail "reliability session's done record carries no rel_* fields"
curl -sf "http://$ADDR/v1/session/$RSID/log" >"$WORKDIR/session_rel.ndjson" ||
	fail "reliability session log fetch failed"
curl -sf --data-binary @"$WORKDIR/session_rel.ndjson" \
	"http://$ADDR/v1/session/replay" >"$WORKDIR/replay_rel.sse" || fail "reliability replay failed"
cmp -s "$WORKDIR/live_rel.sse" "$WORKDIR/replay_rel.sse" ||
	fail "replayed reliability session differs from the live stream"

# Session accounting: both runs finished, so no engine may still be
# held; 2 opens, 3 applied events, 3 replay streams (2 full + 1 seek).
[ "$(metric session_engines_live)" -eq 0 ] ||
	fail "finished sessions still hold $(metric session_engines_live) engines (leak)"
[ "$(metric sessions_opened_total)" -eq 2 ] ||
	fail "sessions_opened_total is $(metric sessions_opened_total), want 2"
[ "$(metric session_events_total)" -eq 3 ] ||
	fail "session_events_total is $(metric session_events_total), want 3"
[ "$(metric session_replays_total)" -eq 3 ] ||
	fail "session_replays_total is $(metric session_replays_total), want 3"

echo "e2e: 4/5 graceful drain on SIGTERM closes a live session"
# A slow session (600 ticks at 5/s) is mid-stream when SIGTERM lands:
# its stream must end with a closed terminal naming the drain, and the
# server must still exit 0. Its (event-free) log is snapshotted first
# so round 5 can prove the closed stream is a byte prefix of a full
# replay on another node.
DBODY='{"job":{"scenario":{"exp":"EXP-1"},"policy":"Default","bench":"gzip","seed":1,"duration_s":60},"cadence_ticks":1,"ticks_per_sec":5}'
DSID=$(curl -sf -d "$DBODY" "http://$ADDR/v1/session" | jq -re .id) || fail "drain session open failed"
curl -sN "http://$ADDR/v1/session/$DSID/stream" >"$WORKDIR/drain.sse" &
DRAIN_PID=$!
sleep 1
curl -sf "http://$ADDR/v1/session/$DSID/log" >"$WORKDIR/drain.ndjson" ||
	fail "drain session log fetch failed"
kill -TERM "$SERVER_PID"
wait "$DRAIN_PID" || fail "drained session stream client failed"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || fail "server exited $STATUS on SIGTERM, want 0"
grep -q "stopped" "$WORKDIR/server.log" || fail "server log records no clean stop"
grep -q '^event: closed$' "$WORKDIR/drain.sse" ||
	fail "drained session stream has no closed terminal"
grep -q '"reason":"draining"' "$WORKDIR/drain.sse" ||
	fail "closed terminal does not name the drain"
grep -q '^event: frame$' "$WORKDIR/drain.sse" ||
	fail "drained session streamed no frames before closing"

echo "e2e: 5/5 three-node cluster"
# Boot 3 nodes on ephemeral ports. Each blocks between binding (it
# writes -addr-file) and serving (it polls -peers-file), so the script
# can collect the addresses and publish the roster before any node
# answers traffic. 16 jobs (4 replicates) keep the per-node partitions
# non-trivial whatever the rendezvous hash does with the random ports.
CLUSTER_ARGS="$SWEEP_ARGS -replicates 4"
CJOBS=16
for n in 1 2 3; do
	"$WORKDIR/dtmserved" -addr 127.0.0.1:0 -addr-file "$WORKDIR/addr$n.txt" \
		-peers-file "$WORKDIR/peers.txt" -workers 2 >"$WORKDIR/node$n.log" 2>&1 &
	NODE_PIDS="$NODE_PIDS $!"
done
for n in 1 2 3; do
	i=0
	while [ ! -s "$WORKDIR/addr$n.txt" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && fail "cluster node $n never wrote its address file"
		sleep 0.1
	done
done
A1=$(cat "$WORKDIR/addr1.txt")
A2=$(cat "$WORKDIR/addr2.txt")
A3=$(cat "$WORKDIR/addr3.txt")
printf 'http://%s,http://%s,http://%s\n' "$A1" "$A2" "$A3" >"$WORKDIR/peers.tmp"
mv "$WORKDIR/peers.tmp" "$WORKDIR/peers.txt"
CLUSTER="http://$A1,http://$A2,http://$A3"
for a in "$A1" "$A2" "$A3"; do
	i=0
	until curl -sf "http://$a/healthz" >/dev/null; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && fail "cluster node $a never became healthy"
		sleep 0.1
	done
done
echo "e2e: cluster up: $CLUSTER"

nmetric() {
	curl -sf "http://$1/metrics" | jq -e ".$2" || fail "metric $2 unreadable on $1"
}
summetric() {
	_s=0
	for _a in "$A1" "$A2" "$A3"; do
		_s=$((_s + $(nmetric "$_a" "$1")))
	done
	echo "$_s"
}

# 5a: the router's merged stream is byte-identical to a direct run.
"$WORKDIR/dtmsweep" -out jsonl -canonical $CLUSTER_ARGS \
	>"$WORKDIR/direct_cluster.jsonl" 2>/dev/null || fail "direct cluster-round sweep failed"
"$WORKDIR/dtmsweep" -out jsonl -remote "$CLUSTER" $CLUSTER_ARGS \
	>"$WORKDIR/cluster.jsonl" 2>/dev/null || fail "cluster sweep failed"
cmp -s "$WORKDIR/direct_cluster.jsonl" "$WORKDIR/cluster.jsonl" ||
	fail "3-node cluster stream differs from the direct run"
[ "$(wc -l <"$WORKDIR/cluster.jsonl")" -eq "$CJOBS" ] ||
	fail "expected $CJOBS cluster records, got $(wc -l <"$WORKDIR/cluster.jsonl")"

# 5b: the caches compose. After 5a every node cached exactly its own
# partition; repeating the sweep against ONE node must be served from
# the cluster-wide cache — peer-fill for the other nodes' keys, not
# one new simulated tick anywhere.
TICKS_C0=$(summetric sim_ticks_total)
PF0=$(nmetric "$A1" peer_fills_total)
HITS_C0=$(summetric cache_hits_total)
"$WORKDIR/dtmsweep" -out jsonl -remote "http://$A1" $CLUSTER_ARGS \
	>"$WORKDIR/single.jsonl" 2>/dev/null || fail "single-node cluster sweep failed"
cmp -s "$WORKDIR/direct_cluster.jsonl" "$WORKDIR/single.jsonl" ||
	fail "single-node sweep through the cluster cache differs from the direct run"
TICKS_C1=$(summetric sim_ticks_total)
[ "$TICKS_C1" -eq "$TICKS_C0" ] ||
	fail "cluster-cached sweep simulated $((TICKS_C1 - TICKS_C0)) new ticks, want 0"
PF1=$(nmetric "$A1" peer_fills_total)
[ "$PF1" -gt "$PF0" ] || fail "peer_fills_total did not move on the queried node"
HITS_C1=$(summetric cache_hits_total)
[ $((HITS_C1 - HITS_C0)) -ge "$CJOBS" ] ||
	fail "cluster-wide cache hits went +$((HITS_C1 - HITS_C0)), want +$CJOBS (every key a hit on its owner)"

# 5c: kill one node; the router must fail over to each dead-owned
# key's rendezvous runner-up and still merge the canonical stream. A
# fresh seed keeps every job uncached so the failover actually routes
# work.
KILLED_PID=${NODE_PIDS##* }
kill -9 "$KILLED_PID" 2>/dev/null || true
SEED2_ARGS="-exps 1,2 -policies Default,Adapt3D -benchmarks Web-med -duration 2 -seed 2 -replicates 4"
"$WORKDIR/dtmsweep" -out jsonl -canonical $SEED2_ARGS \
	>"$WORKDIR/direct_seed2.jsonl" 2>/dev/null || fail "direct seed-2 sweep failed"
"$WORKDIR/dtmsweep" -out jsonl -remote "$CLUSTER" $SEED2_ARGS \
	>"$WORKDIR/cluster_seed2.jsonl" 2>/dev/null || fail "cluster sweep with a dead node failed"
cmp -s "$WORKDIR/direct_seed2.jsonl" "$WORKDIR/cluster_seed2.jsonl" ||
	fail "cluster stream with a dead node differs from the direct run"

# 5d: server-side peer-fill around the dead node. Another fresh seed
# against one surviving node: keys owned by the live peer peer-fill
# (counter up), keys owned by the dead peer retry then re-route to a
# local run (both failure counters up) — and the records still match.
PF_A0=$(nmetric "$A1" peer_fills_total)
RR_A0=$(nmetric "$A1" rerouted_jobs_total)
BR_A0=$(nmetric "$A1" backend_retries_total)
SEED3_ARGS="-exps 1,2 -policies Default,Adapt3D -benchmarks Web-med -duration 2 -seed 3 -replicates 4"
"$WORKDIR/dtmsweep" -out jsonl -canonical $SEED3_ARGS \
	>"$WORKDIR/direct_seed3.jsonl" 2>/dev/null || fail "direct seed-3 sweep failed"
"$WORKDIR/dtmsweep" -out jsonl -remote "http://$A1" $SEED3_ARGS \
	>"$WORKDIR/single_seed3.jsonl" 2>/dev/null || fail "single-node sweep with a dead peer failed"
cmp -s "$WORKDIR/direct_seed3.jsonl" "$WORKDIR/single_seed3.jsonl" ||
	fail "records with a dead peer differ from the direct run"
PF_A1=$(nmetric "$A1" peer_fills_total)
RR_A1=$(nmetric "$A1" rerouted_jobs_total)
BR_A1=$(nmetric "$A1" backend_retries_total)
[ "$PF_A1" -gt "$PF_A0" ] || fail "peer_fills_total did not move for live-peer-owned keys"
[ "$RR_A1" -gt "$RR_A0" ] || fail "rerouted_jobs_total did not move for dead-peer-owned keys"
[ "$BR_A1" -gt "$BR_A0" ] || fail "backend_retries_total did not move for dead-peer-owned keys"

# 5e: session logs are portable. The log snapshotted from the drained
# session in round 4 replays on a different node, and the live stream
# the drained client saw — minus its closed terminal — is a byte
# prefix of that full replay: the drain lost the tail, never the
# truth.
curl -sf --data-binary @"$WORKDIR/drain.ndjson" \
	"http://$A1/v1/session/replay" >"$WORKDIR/drain_replay.sse" ||
	fail "drained session log does not replay on another node"
grep -q '^event: done$' "$WORKDIR/drain_replay.sse" ||
	fail "cross-node replay of the drained log has no done terminal"
sed '/^event: closed$/,$d' "$WORKDIR/drain.sse" >"$WORKDIR/drain_prefix.sse"
[ -s "$WORKDIR/drain_prefix.sse" ] || fail "drained session captured no bytes before closing"
PFXLEN=$(wc -c <"$WORKDIR/drain_prefix.sse")
head -c "$PFXLEN" "$WORKDIR/drain_replay.sse" | cmp -s - "$WORKDIR/drain_prefix.sse" ||
	fail "drained session stream is not a prefix of its replay"

echo "e2e: PASS"
