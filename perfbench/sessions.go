package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/session"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// Session-stream sizing: each session runs 6000 ticks at cadence 1 and
// takes a storm of 20 events, so a 20 s run collects over a thousand
// event acknowledgements.
const (
	sessionDurationS = 600
	stormEvents      = 20
	sessionSetupReps = 7
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
	at   time.Time
}

// sessionPlan is one generated session: its job, its event storm, and
// the tick its checkpoint seek starts from.
type sessionPlan struct {
	job      sweep.Job
	storm    []session.Event
	seekTick int
}

// planSession draws a session whose policy and policy swaps come from
// roster.
func planSession(rng *rand.Rand, roster []string) sessionPlan {
	job := sweep.Job{
		Scenario:    sweep.Scenario{Exp: []floorplan.Experiment{floorplan.EXP1, floorplan.EXP2}[rng.Intn(2)]},
		Policy:      roster[rng.Intn(len(roster))],
		Bench:       []string{"Web-med", "Web-high", "Database", "Web&DB", "gcc", "MPlayer&Web"}[rng.Intn(6)],
		Seed:        simSeed(rng),
		Solver:      thermal.SolverCached,
		DurationS:   sessionDurationS,
		Reliability: rng.Intn(2) == 0,
	}
	ticks := sessionDurationS * 10
	return sessionPlan{
		job:      job,
		storm:    eventStorm(rng, roster, 8, stormEvents),
		seekTick: 1 + rng.Intn(ticks-1),
	}
}

// sessionClient talks to one node over at most two connections: one
// for the live stream, one for the events posted while it streams.
type sessionClient struct {
	base  string
	httpc *http.Client
}

func (c *sessionClient) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *sessionClient) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *sessionClient) do(req *http.Request) ([]byte, error) {
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))})
	}
	return b, nil
}

// statusError is a reply other than 200 OK.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("%d %s", e.code, e.body) }

// runComplete reports whether err is the 409 a session answers an event
// with once its run has completed.
func runComplete(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusConflict && strings.Contains(se.body, session.ErrComplete.Error())
}

// open admits a session and returns its ID.
func (c *sessionClient) open(ctx context.Context, p sessionPlan) (string, error) {
	body, err := json.Marshal(session.OpenRequest{Job: p.job, CadenceTicks: 1})
	if err != nil {
		return "", err
	}
	b, err := c.post(ctx, "/v1/session", body)
	if err != nil {
		return "", err
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// stream reads the session's live SSE stream, timestamping every event
// as it arrives. started is closed once the first frame is in.
func (c *sessionClient) stream(ctx context.Context, id string, started chan<- struct{}) ([]byte, []sseEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/session/"+id+"/stream", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("stream: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var raw bytes.Buffer
	evs, err := readSSE(io.TeeReader(resp.Body, &raw), started)
	return raw.Bytes(), evs, err
}

// readSSE parses "event: <name>\ndata: <json>\n\n" records.
func readSSE(r io.Reader, started chan<- struct{}) ([]sseEvent, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var evs []sseEvent
	var cur sseEvent
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			cur = sseEvent{name: string(bytes.TrimSpace(line[len("event: "):]))}
		case bytes.HasPrefix(line, []byte("data: ")):
			cur.data = append([]byte(nil), bytes.TrimRight(line[len("data: "):], "\n")...)
		case len(bytes.TrimSpace(line)) == 0 && cur.name != "":
			cur.at = time.Now()
			evs = append(evs, cur)
			if cur.name == session.StreamFrame && started != nil {
				close(started)
				started = nil
			}
			cur = sseEvent{}
		}
	}
}

// tail is the live stream filtered the way a checkpoint seek from tick
// T replays it: the header, every event and frame at tick T or later,
// and the terminal.
func tail(evs []sseEvent, from int) []byte {
	var b bytes.Buffer
	for _, e := range evs {
		if e.name == session.StreamFrame || e.name == session.StreamEvent {
			var t struct {
				Tick int `json:"tick"`
			}
			if json.Unmarshal(e.data, &t) != nil || t.Tick < from {
				continue
			}
		}
		fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", e.name, e.data)
	}
	return b.Bytes()
}

// sessionStats accumulates what the timed sessions measured.
type sessionStats struct {
	gapsMS, acksMS                []float64
	streamNSPerTick, streamMS     []float64
	streamCPUPerTick              []float64
	openMS, replayMS, seekMS      []float64
	applied                       []float64 // storm events applied, per session
	replayNSPerTick               []float64
	frames, frameBytes, liveTicks int64
	frameWall                     time.Duration
}

// runSession drives one full session: open, live stream with the
// event storm posted while it runs, log fetch, full replay, and one
// checkpoint seek, checking replay and seek against the live bytes.
func runSession(ctx context.Context, c *sessionClient, p sessionPlan, res *result, st *sessionStats, tr *tracer, gid string) {
	root := tr.begin("session", gid, -1)
	defer tr.end(root)

	sp := tr.begin("session.open", gid, root)
	t := time.Now()
	id, err := c.open(ctx, p)
	st.openMS = append(st.openMS, durMS(time.Since(t)))
	tr.end(sp)
	if !res.checks.err(err, "session open") {
		return
	}

	sp = tr.begin("session.stream", gid, root)
	started, streamed := make(chan struct{}), make(chan struct{})
	type stormResult struct {
		applied int
		err     error
	}
	storm := make(chan stormResult, 1)
	go func() {
		n, err := postStorm(ctx, c, id, p.storm, started, streamed, st, tr, gid, sp)
		storm <- stormResult{n, err}
	}()
	t, c0 := time.Now(), cpuTime()
	live, evs, err := c.stream(ctx, id, started)
	wall, cpu := time.Since(t), cpuTime()-c0
	close(streamed)
	tr.end(sp)
	sr := <-storm
	res.checks.err(sr.err, "event storm")
	if !res.checks.err(err, "session stream") {
		return
	}
	var last time.Time
	frames := 0
	for _, e := range evs {
		if e.name != session.StreamFrame {
			continue
		}
		if frames > 0 {
			st.gapsMS = append(st.gapsMS, durMS(e.at.Sub(last)))
		}
		last = e.at
		frames++
		st.frameBytes += int64(len(e.data))
	}
	ticks := sessionDurationS * 10
	if !res.checks.ok(frames == ticks && len(evs) > 0 && evs[len(evs)-1].name == session.StreamDone,
		"session %s: %d frames, want %d, then done", id, frames, ticks) {
		return
	}
	st.frames += int64(frames)
	st.liveTicks += int64(ticks)
	st.frameWall += wall
	st.streamMS = append(st.streamMS, durMS(wall))
	st.streamNSPerTick = append(st.streamNSPerTick, float64(wall)/float64(ticks))
	st.streamCPUPerTick = append(st.streamCPUPerTick, float64(cpu)/float64(ticks))
	st.applied = append(st.applied, float64(sr.applied))

	sp = tr.begin("session.log", gid, root)
	log, err := c.get(ctx, "/v1/session/"+id+"/log")
	tr.end(sp)
	if !res.checks.err(err, "session log") {
		return
	}
	if l, err := session.ParseLog(bytes.NewReader(log)); res.checks.err(err, "session log parse") {
		res.checks.ok(len(l.Events) == sr.applied, "session %s: the log holds %d events, %d were acknowledged", id, len(l.Events), sr.applied)
	}
	sp = tr.begin("session.replay", gid, root)
	t = time.Now()
	replayed, err := c.post(ctx, "/v1/session/replay", log)
	d := time.Since(t)
	tr.end(sp)
	if res.checks.err(err, "session replay") {
		st.replayMS = append(st.replayMS, durMS(d))
		st.replayNSPerTick = append(st.replayNSPerTick, float64(d)/float64(ticks))
		res.checks.ok(bytes.Equal(replayed, live), "session %s: replay (%d bytes) differs from the live stream (%d bytes)", id, len(replayed), len(live))
	}
	sp = tr.begin("session.seek", gid, root)
	t = time.Now()
	seek, err := c.get(ctx, fmt.Sprintf("/v1/session/%s/replay?from_tick=%d", id, p.seekTick))
	d = time.Since(t)
	tr.end(sp)
	if res.checks.err(err, "session seek") {
		st.seekMS = append(st.seekMS, durMS(d))
		res.checks.ok(bytes.Equal(seek, tail(evs, p.seekTick)), "session %s: seek from tick %d differs from the live stream's tail", id, p.seekTick)
	}
}

// postStorm posts the session's events one after another once the
// live stream has delivered its first frame, timing each acknowledged
// round trip, and returns how many events the session applied. How much
// of the storm lands before the run completes depends on how fast the
// session runs, so an event refused because the run is complete ends
// the storm without failing it; runSession checks that the session's
// log holds exactly the acknowledged events.
func postStorm(ctx context.Context, c *sessionClient, id string, storm []session.Event, started, streamed <-chan struct{}, st *sessionStats, tr *tracer, gid string, parent int) (int, error) {
	select {
	case <-started:
	case <-streamed:
		// A stream that delivered frames and ended before this goroutine
		// woke closes both channels; only one without frames is an error.
		select {
		case <-started:
		default:
			return 0, fmt.Errorf("stream ended before its first frame")
		}
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	for i, ev := range storm {
		body, err := json.Marshal(ev)
		if err != nil {
			return i, err
		}
		sp := tr.begin("session.event", gid, parent)
		t := time.Now()
		_, err = c.post(ctx, "/v1/session/"+id+"/event", body)
		d := time.Since(t)
		tr.end(sp)
		switch {
		case runComplete(err):
			return i, nil
		case err != nil:
			return i, fmt.Errorf("event %s: %w", ev.Type, err)
		}
		st.acksMS = append(st.acksMS, durMS(d))
	}
	return len(storm), nil
}

// referenceSession runs the storm of p applied before the stream
// starts, so every event lands at tick 0 and the stream is a pure
// function of the inputs: its digest is the run's determinism check.
func referenceSession(ctx context.Context, c *sessionClient, p sessionPlan) (string, error) {
	id, err := c.open(ctx, p)
	if err != nil {
		return "", err
	}
	for _, ev := range p.storm {
		body, err := json.Marshal(ev)
		if err != nil {
			return "", err
		}
		if _, err := c.post(ctx, "/v1/session/"+id+"/event", body); err != nil {
			return "", err
		}
	}
	live, _, err := c.stream(ctx, id, nil)
	if err != nil {
		return "", err
	}
	if !strings.Contains(string(live), "event: done\n") {
		return "", fmt.Errorf("reference session did not complete")
	}
	sum := sha256.Sum256(live)
	return hex.EncodeToString(sum[:]), nil
}

func runSessionStream(ctx context.Context, o opts) (*result, error) {
	res := newResult()
	rng := newRand(o.seed, "session-stream")
	// The reference session is part of set-up; leaving the planners out
	// of its roster keeps its cost from swinging with the seed.
	var reactive []string
	for _, p := range exp.PolicyOrder {
		if !strings.HasPrefix(p, "MPC_") {
			reactive = append(reactive, p)
		}
	}
	ref := planSession(rng, reactive)

	// Set-up: boot the node from a cold factorization cache and stream
	// the reference session; repeated, median reported.
	var (
		nodes  []*node
		c      *sessionClient
		setups []float64
	)
	for rep := 0; rep < sessionSetupReps; rep++ {
		if nodes != nil {
			c.httpc.CloseIdleConnections()
			if err := stopNodes(nodes); err != nil {
				return nil, err
			}
		}
		thermal.ResetFactorCache()
		t := time.Now()
		var err error
		if nodes, err = bootNodes(1); err != nil {
			return nil, err
		}
		c = &sessionClient{base: nodes[0].url, httpc: newHTTPClient()}
		digest, err := referenceSession(ctx, c, ref)
		if err != nil {
			stopNodes(nodes)
			return nil, fmt.Errorf("reference session: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if res.digest != "" {
			res.checks.ok(digest == res.digest, "reference session digest %s differs from %s", digest, res.digest)
		}
		res.digest = digest
	}
	defer func() {
		c.httpc.CloseIdleConnections()
		stopNodes(nodes)
	}()
	res.e2e["setup_s"] = median(setups)
	res.line("setup_s", res.e2e["setup_s"], "s", fmt.Sprintf("boot the node and stream the reference session, median of %d", sessionSetupReps))

	budget := o.budget()
	var plain, traced sessionStats
	var tr *tracer
	m0 := mallocs()
	run := func(st *sessionStats, spans *tracer, d time.Duration) {
		start := time.Now()
		for i := 0; i < 2 || time.Since(start) < d; i++ {
			if ctx.Err() != nil {
				return
			}
			runSession(ctx, c, planSession(rng, exp.PolicyOrder), res, st, spans, fmt.Sprintf("session%d", i))
		}
	}
	if o.trace {
		run(&plain, nil, budget/3)
		tr = newTracer()
		run(&traced, tr, budget-budget/3)
	} else {
		run(&plain, nil, budget)
	}
	allocs := mallocs() - m0

	m, err := nodes[0].scrape()
	if err != nil {
		return nil, err
	}
	res.checks.ok(m.SessionEnginesLive == 0, "%d session engines still live after every session finished", m.SessionEnginesLive)

	st := plain
	if o.trace {
		st = traced
	}
	res.e2e["ns_per_tick"] = median(st.streamCPUPerTick)
	res.e2e["allocs_per_tick"] = float64(allocs) / float64(max(plain.liveTicks+traced.liveTicks, 1))
	res.e2e["op_p50_ms"] = median(st.streamMS)
	res.line("ns_per_tick", res.e2e["ns_per_tick"], "ns", fmt.Sprintf("whole-process CPU per live tick, median of %d sessions", len(st.streamMS)))
	res.line("wall_ns_per_tick", median(st.streamNSPerTick), "ns", "live stream")
	res.line("allocs_per_tick", res.e2e["allocs_per_tick"], "count", "whole process, per live tick")
	res.line("stream_p50_ms", res.e2e["op_p50_ms"], "ms", "one live session stream")
	res.line("events_applied", median(st.applied), "count", fmt.Sprintf("of %d posted per session, median of %d sessions", stormEvents, len(st.applied)))
	res.report = append(res.report,
		quantileLine("frame_gap_p99_ms", st.gapsMS, 0.99),
		quantileLine("event_ack_p99_ms", st.acksMS, 0.99),
		reportLine{name: "replay_ns_per_tick", value: median(st.replayNSPerTick), unit: "ns", note: fmt.Sprintf("n=%d", len(st.replayNSPerTick))},
	)

	if o.trace {
		L := res.layers
		L["session.open_ms"] = median(st.openMS)
		L["session.frame_us"] = durUS(st.frameWall) / float64(max(st.frames, 1))
		L["session.bytes_per_frame"] = float64(st.frameBytes) / float64(max(st.frames, 1))
		L["session.replay_ms"] = median(st.replayMS)
		L["session.seek_ms"] = median(st.seekMS)
		L["session.engines_live_after"] = float64(m.SessionEnginesLive)
		L["session.frame_gap_p99_ms"], _ = percentile(st.gapsMS, 0.99)
		L["session.event_ack_p99_ms"], _ = percentile(st.acksMS, 0.99)
		L["session.replay_ns_per_tick"] = median(st.replayNSPerTick)
		L["bench.tracing_overhead_ratio"] = median(traced.streamCPUPerTick) / median(plain.streamCPUPerTick)
		a := newAcc()
		if err := probeJob(tr, a, &res.checks, ref.job, nil, 1); err != nil {
			res.checks.fail("probe %s: %v", ref.job.Key(), err)
		}
		a.into(L)
		if err := tr.write(spanPath(o)); err != nil {
			return nil, err
		}
	}
	return res, nil
}
