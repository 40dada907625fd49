package session

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/sweep"

	// Register the shipped scenario library so jobs can reference the
	// big-little stack by name, like a served client would.
	_ "repro/scenarios"
)

// capture records a stream in the server's SSE framing — the exact
// bytes a client reads — and keeps the (name, data) pairs so streams
// can be re-rendered with a tick filter.
type capture struct {
	buf   bytes.Buffer
	names []string
	datas [][]byte
	// onBoundary, when set, fires at each boundary the stream exposes:
	// tick 0 at the header, then the tick of every frame. Emit runs
	// outside the session mutex, so the callback may call ApplyEvent —
	// the injected event lands at exactly that boundary.
	onBoundary func(tick int)
}

func (c *capture) emit(event string, data []byte) error {
	d := append([]byte(nil), data...)
	c.names = append(c.names, event)
	c.datas = append(c.datas, d)
	fmt.Fprintf(&c.buf, "event: %s\ndata: %s\n\n", event, d)
	if c.onBoundary != nil {
		switch event {
		case StreamSession:
			c.onBoundary(0)
		case StreamFrame:
			var f struct {
				Tick int `json:"tick"`
			}
			if err := json.Unmarshal(d, &f); err == nil {
				c.onBoundary(f.Tick)
			}
		}
	}
	return nil
}

// renderFrom re-renders the captured stream keeping only frames and
// events whose tick is at least from (header and terminals always
// kept) — the reference a checkpoint seek must match byte for byte.
func (c *capture) renderFrom(from int) []byte {
	var out bytes.Buffer
	for i, n := range c.names {
		if n == StreamFrame || n == StreamEvent {
			var doc struct {
				Tick int `json:"tick"`
			}
			if err := json.Unmarshal(c.datas[i], &doc); err != nil || doc.Tick < from {
				continue
			}
		}
		fmt.Fprintf(&out, "event: %s\ndata: %s\n\n", n, c.datas[i])
	}
	return out.Bytes()
}

// diffStreams reports the first byte where two streams diverge, with
// context, so a determinism failure is debuggable.
func diffStreams(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	end := func(b []byte) int {
		if i+120 < len(b) {
			return i + 120
		}
		return len(b)
	}
	t.Fatalf("%s: streams diverge at byte %d (got %d bytes, want %d)\n got: ...%s\nwant: ...%s",
		label, i, len(got), len(want), got[lo:end(got)], want[lo:end(want)])
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = -1 // keep the janitor out of deterministic tests
	}
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m
}

// scheduled is one event to inject at an exact boundary of a live run.
type scheduled struct {
	tick int
	ev   Event
}

// runLive streams the session to completion, injecting each scheduled
// event at its boundary (ticks must be multiples of the session's frame
// cadence, or 0).
func runLive(t *testing.T, s *Session, events []scheduled) *capture {
	t.Helper()
	pending := append([]scheduled(nil), events...)
	c := &capture{}
	c.onBoundary = func(tick int) {
		for len(pending) > 0 && pending[0].tick == tick {
			if _, err := s.ApplyEvent(pending[0].ev); err != nil {
				t.Fatalf("injecting %+v at tick %d: %v", pending[0].ev, tick, err)
			}
			pending = pending[1:]
		}
	}
	if err := s.Stream(context.Background(), c.emit, nil); err != nil {
		t.Fatalf("live stream: %v", err)
	}
	if len(pending) != 0 {
		t.Fatalf("%d scheduled events never hit a boundary (first: %+v)", len(pending), pending[0])
	}
	return c
}

// TestReplayDeterminismMatrix is the central invariant, pinned across
// three scenario shapes (a builtin experiment, a grid-mode thermal
// model, and a declarative library stack) and a model-predictive
// planner, reliability tracking off and on, with all four event types
// injected mid-run: replaying the
// recorded event log against a fresh engine reproduces the live SSE
// stream byte-identically, and checkpoint seeks, serial and concurrent,
// reproduce the stream's tick-filtered suffix byte-identically.
func TestReplayDeterminismMatrix(t *testing.T) {
	cases := []struct {
		name    string
		job     sweep.Job
		cadence int
		events  []scheduled
	}{
		{
			name:    "exp2-block",
			job:     sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP2}, Policy: "DVFS_TT", Bench: "Web-med", Seed: 11, DurationS: 2},
			cadence: 1,
			events: []scheduled{
				{0, Event{Type: EventSetPolicy, Policy: "CGate"}},
				{2, Event{Type: EventFailTSV}},
				{7, Event{Type: EventMigrate, From: 0, To: 4}},
				{12, Event{Type: EventSetWorkload, Bench: "gzip"}},
			},
		},
		{
			name:    "exp1-grid",
			job:     sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1, GridRows: 4, GridCols: 4}, Policy: "Migr", Bench: "gzip", Seed: 7, DurationS: 2},
			cadence: 2,
			events: []scheduled{
				{2, Event{Type: EventMigrate, From: 1, To: 0, Tail: true}},
				{4, Event{Type: EventFailTSV, Factor: 1.5}},
				{10, Event{Type: EventSetPolicy, Policy: "DVFS_Util"}},
				{14, Event{Type: EventSetWorkload, Bench: "Database", Seed: 99}},
			},
		},
		{
			// A planner through the events that drop its rollout lanes:
			// fail_tsv and set_workload before the tick-5 checkpoint, a
			// decision epoch at tick 10, and a swap to the other planner.
			name:    "exp2-mpc",
			job:     sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP2}, Policy: "MPC_Rel", Bench: "Web-med", Seed: 7, DurationS: 2},
			cadence: 1,
			events: []scheduled{
				{2, Event{Type: EventFailTSV, Factor: 2}},
				{3, Event{Type: EventSetWorkload, Bench: "Web-high"}},
				{8, Event{Type: EventMigrate, From: 0, To: 3}},
				{12, Event{Type: EventSetPolicy, Policy: "MPC_Thermal"}},
			},
		},
		{
			name:    "library-stack",
			job:     sweep.Job{Scenario: sweep.Scenario{Stack: &sweep.StackRef{Name: "big-little"}}, Policy: "Adapt3D", Bench: "gcc", Seed: 3, DurationS: 2},
			cadence: 3,
			events: []scheduled{
				{3, Event{Type: EventSetPolicy, Policy: "Adapt3D&DVFS_TT"}},
				{6, Event{Type: EventSetWorkload, Bench: "MPlayer"}},
				{9, Event{Type: EventMigrate, From: 0, To: 9}},
				{15, Event{Type: EventFailTSV, Factor: 3}},
			},
		},
	}
	for _, tc := range cases {
		for _, rel := range []bool{false, true} {
			tc := tc
			job := tc.job
			job.Reliability = rel
			t.Run(fmt.Sprintf("%s/reliability=%v", tc.name, rel), func(t *testing.T) {
				t.Parallel()
				m := newTestManager(t, Config{})
				s, err := m.Open(OpenRequest{Job: job, CadenceTicks: tc.cadence, CheckpointTicks: 5})
				if err != nil {
					t.Fatal(err)
				}
				live := runLive(t, s, tc.events)
				if !bytes.Contains(live.buf.Bytes(), []byte("event: done\n")) {
					t.Fatalf("live stream did not complete:\n%s", live.buf.Bytes())
				}

				// The log round-trips through its wire form losslessly.
				lg := s.Log()
				if n := len(lg.Events); n != len(tc.events) {
					t.Fatalf("log holds %d events, injected %d", n, len(tc.events))
				}
				var enc bytes.Buffer
				if err := lg.Encode(&enc); err != nil {
					t.Fatal(err)
				}
				parsed, err := ParseLog(bytes.NewReader(enc.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lg, parsed) {
					t.Fatalf("log round trip changed it:\nbefore %+v\nafter  %+v", lg, parsed)
				}

				// Full replay from the parsed wire-form log is
				// byte-identical to the live stream.
				rep := &capture{}
				if err := m.Replay(parsed, rep.emit); err != nil {
					t.Fatalf("replay: %v", err)
				}
				diffStreams(t, "full replay", rep.buf.Bytes(), live.buf.Bytes())

				// The checkpoint path must really be exercised: every
				// roster policy forks, so captures never fail silently.
				if len(s.ckpts) < 4 {
					t.Fatalf("only %d checkpoints captured, want the 0/5/10/15 boundaries", len(s.ckpts))
				}

				// Checkpoint seeks equal the live stream filtered to
				// tick >= from. The boundaries straddle checkpoints
				// (every 5 ticks) and the injected structural events.
				for _, from := range []int{0, 1, 6, 13, s.TotalTicks()} {
					sk := &capture{}
					if err := s.ReplayFrom(from, sk.emit); err != nil {
						t.Fatalf("seek from %d: %v", from, err)
					}
					diffStreams(t, fmt.Sprintf("seek from %d", from), sk.buf.Bytes(), live.renderFrom(from))
				}

				// Seeks restore from their checkpoint concurrently and
				// only read it: 6 to 9 share the tick-5 checkpoint, while
				// 1 and 13 restore the tick-0 and tick-10 ones.
				froms := []int{6, 7, 8, 9, 1, 13}
				seeks := make([]capture, len(froms))
				errs := make([]error, len(froms))
				var wg sync.WaitGroup
				for i, from := range froms {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = s.ReplayFrom(from, seeks[i].emit)
					}()
				}
				wg.Wait()
				for i, from := range froms {
					if errs[i] != nil {
						t.Fatalf("concurrent seek from %d: %v", from, errs[i])
					}
					diffStreams(t, fmt.Sprintf("concurrent seek from %d", from), seeks[i].buf.Bytes(), live.renderFrom(from))
				}
			})
		}
	}
}

// TestReplayAfterReconnect pins that a session whose live stream
// dropped mid-run and resumed (a reconnecting client) still records a
// log whose replay equals the concatenated live bytes: the engine keeps
// its position across streams, the header goes out once.
func TestReplayAfterReconnect(t *testing.T) {
	job := sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "Default", Bench: "gzip", Seed: 5, DurationS: 1}
	m := newTestManager(t, Config{})
	s, err := m.Open(OpenRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}

	// First stream: cancel after a few frames via a failing emit.
	first := &capture{}
	frames := 0
	dropErr := fmt.Errorf("client went away")
	err = s.Stream(context.Background(), func(event string, data []byte) error {
		if frames > 3 {
			return dropErr
		}
		if event == StreamFrame {
			frames++
		}
		return first.emit(event, data)
	}, nil)
	if err != dropErr {
		t.Fatalf("dropped stream returned %v, want the emit error", err)
	}
	if _, err := s.ApplyEvent(Event{Type: EventSetPolicy, Policy: "CGate"}); err != nil {
		t.Fatalf("event between streams: %v", err)
	}
	second := runLive(t, s, nil)

	live := append(append([]byte(nil), first.buf.Bytes()...), second.buf.Bytes()...)
	rep := &capture{}
	if err := m.Replay(s.Log(), rep.emit); err != nil {
		t.Fatal(err)
	}
	diffStreams(t, "replay vs concatenated reconnect streams", rep.buf.Bytes(), live)
}

// TestSessionLifecycleErrors pins the error contract: events after
// completion are ErrComplete, a second concurrent stream is
// ErrStreaming, seeks before completion are ErrNotComplete, and a
// finished session re-emits its terminal.
func TestSessionLifecycleErrors(t *testing.T) {
	job := sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "Default", Bench: "gzip", Seed: 1, DurationS: 0.5}
	m := newTestManager(t, Config{})

	// Seek before completion.
	s, err := m.Open(OpenRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayFrom(0, (&capture{}).emit); err != ErrNotComplete {
		t.Fatalf("seek before completion: %v, want ErrNotComplete", err)
	}

	// Second concurrent stream while the first is parked inside an emit
	// (deterministically mid-stream: emit runs outside the mutex, so the
	// streaming flag is held while we probe).
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- s.Stream(context.Background(), func(string, []byte) error {
			once.Do(func() { close(started) })
			<-gate
			return nil
		}, nil)
	}()
	<-started
	if err := s.Stream(context.Background(), (&capture{}).emit, nil); err != ErrStreaming {
		t.Fatalf("concurrent stream: %v, want ErrStreaming", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("first stream: %v", err)
	}

	// Events after completion.
	if _, err := s.ApplyEvent(Event{Type: EventFailTSV}); err != ErrComplete {
		t.Fatalf("event after completion: %v, want ErrComplete", err)
	}
	// A finished session re-emits its terminal (and nothing else: the
	// header went out on the first stream).
	again := &capture{}
	if err := s.Stream(context.Background(), again.emit, nil); err != nil {
		t.Fatal(err)
	}
	if len(again.names) != 1 || again.names[0] != StreamDone {
		t.Fatalf("re-stream of finished session emitted %v, want one done terminal", again.names)
	}
}

// TestEngineRejectedEventNotLogged pins that an event the engine
// refuses (out-of-range core) is not appended to the log — a log line
// must never describe an intervention that did not happen.
func TestEngineRejectedEventNotLogged(t *testing.T) {
	job := sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "Default", Bench: "gzip", Seed: 1, DurationS: 0.5}
	m := newTestManager(t, Config{})
	s, err := m.Open(OpenRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyEvent(Event{Type: EventMigrate, From: 0, To: 999}); err == nil {
		t.Fatal("migration to core 999 on an 8-core stack was accepted")
	}
	if n := len(s.Log().Events); n != 0 {
		t.Fatalf("rejected event left %d log records", n)
	}
	if st := m.Stats(); st.Events != 0 {
		t.Fatalf("rejected event moved the events counter to %d", st.Events)
	}
}

// TestReplayEventFailureEndsInErrorTerminal pins the one-terminal
// promise for an external log whose event the engine rejects mid-run:
// the header is already out, so the failure ends the stream as its one
// error terminal, and Replay itself returns nil.
func TestReplayEventFailureEndsInErrorTerminal(t *testing.T) {
	m := newTestManager(t, Config{})
	lg := &Log{
		Header: Header{Type: RecordSession, Job: testJob(1), CadenceTicks: 1},
		Events: []AppliedEvent{{Type: RecordEvent, Tick: 2, Seq: 0, Event: Event{Type: EventMigrate, From: 0, To: 99}}},
	}
	c := &capture{}
	if err := m.Replay(lg, c.emit); err != nil {
		t.Fatalf("replay returned %v, want the failure as the stream's terminal", err)
	}
	if want := []string{StreamSession, StreamFrame, StreamFrame, StreamError}; !reflect.DeepEqual(c.names, want) {
		t.Fatalf("replay emitted %v, want %v", c.names, want)
	}
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(c.datas[len(c.datas)-1], &doc); err != nil {
		t.Fatal(err)
	}
	if want := "session: replaying event seq 0 at tick 2: sched: migrate 0->99 out of range"; doc.Error != want {
		t.Fatalf("error terminal says %q, want %q", doc.Error, want)
	}
}
