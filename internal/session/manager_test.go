package session

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/sweep"
)

func testJob(seed int64) sweep.Job {
	return sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "Default", Bench: "gzip", Seed: seed, DurationS: 0.5}
}

func TestManagerCapacityEviction(t *testing.T) {
	m := newTestManager(t, Config{MaxSessions: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		s, err := m.Open(OpenRequest{Job: testJob(int64(i + 1))})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		ids = append(ids, s.ID)
	}
	st := m.Stats()
	if st.Open != 2 || st.Evicted != 1 || st.Opened != 3 {
		t.Fatalf("stats after 3 opens at cap 2: %+v", st)
	}
	// The oldest idle session went; the newer two stayed.
	if _, err := m.Get(ids[0]); err != ErrNotFound {
		t.Fatalf("evicted session still resident: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("session %s gone: %v", id, err)
		}
	}
	if st.EnginesLive != 2 {
		t.Fatalf("engines live %d after eviction, want 2", st.EnginesLive)
	}
}

func TestManagerLimitWhenAllStreaming(t *testing.T) {
	m := newTestManager(t, Config{MaxSessions: 1})
	s, err := m.Open(OpenRequest{Job: testJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- s.Stream(context.Background(), func(string, []byte) error {
			if first {
				first = false
				close(started)
				<-gate
			}
			return nil
		}, nil)
	}()
	<-started
	if _, err := m.Open(OpenRequest{Job: testJob(2)}); err != ErrLimit {
		t.Fatalf("open at cap with every session streaming: %v, want ErrLimit", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The session finished, so it is idle again and evictable.
	if _, err := m.Open(OpenRequest{Job: testJob(3)}); err != nil {
		t.Fatalf("open after stream finished: %v", err)
	}
}

func TestClosedSessionBehaviour(t *testing.T) {
	m := newTestManager(t, Config{MaxSessions: 1})
	s, err := m.Open(OpenRequest{Job: testJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(OpenRequest{Job: testJob(2)}); err != nil { // evicts s
		t.Fatal(err)
	}
	if _, err := s.ApplyEvent(Event{Type: EventFailTSV}); err != ErrClosed {
		t.Fatalf("event on evicted session: %v, want ErrClosed", err)
	}
	c := &capture{}
	if err := s.Stream(context.Background(), c.emit, nil); err != nil {
		t.Fatalf("stream of evicted session: %v", err)
	}
	got := c.buf.String()
	if !strings.Contains(got, `event: closed`) || !strings.Contains(got, `"reason":"evicted: capacity"`) {
		t.Fatalf("evicted session stream:\n%s", got)
	}
	if err := s.ReplayFrom(0, (&capture{}).emit); err != ErrClosed {
		t.Fatalf("seek on evicted session: %v, want ErrClosed", err)
	}
}

func TestManagerDrainClosesActiveStream(t *testing.T) {
	m := newTestManager(t, Config{})
	s, err := m.Open(OpenRequest{Job: testJob(1), TicksPerSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := &capture{}
	started := make(chan struct{})
	first := true
	done := make(chan error, 1)
	go func() {
		done <- s.Stream(context.Background(), func(ev string, d []byte) error {
			if first {
				first = false
				close(started)
			}
			return c.emit(ev, d)
		}, nil)
	}()
	<-started
	m.Drain()
	if err := <-done; err != nil {
		t.Fatalf("drained stream: %v", err)
	}
	got := c.buf.String()
	if !strings.HasSuffix(got, "\n\n") || !strings.Contains(got, `event: closed`) || !strings.Contains(got, `"reason":"draining"`) {
		t.Fatalf("drained stream did not end with the closed terminal:\n%s", got)
	}
	st := m.Stats()
	if st.Open != 0 || st.EnginesLive != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
	if _, err := m.Open(OpenRequest{Job: testJob(2)}); err != ErrDraining {
		t.Fatalf("open on drained manager: %v, want ErrDraining", err)
	}
	var lgBuf bytes.Buffer
	if err := s.Log().Encode(&lgBuf); err != nil {
		t.Fatal(err)
	}
	lg, err := ParseLog(bytes.NewReader(lgBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Replay(lg, (&capture{}).emit); err != ErrDraining {
		t.Fatalf("replay on drained manager: %v, want ErrDraining", err)
	}
}

func TestEvictIdle(t *testing.T) {
	m := newTestManager(t, Config{})
	s, err := m.Open(OpenRequest{Job: testJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.EvictIdle(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("evicted %d sessions against an old deadline", n)
	}
	if n := m.EvictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("evicted %d sessions against a future deadline, want 1", n)
	}
	if _, err := m.Get(s.ID); err != ErrNotFound {
		t.Fatalf("idle-evicted session still resident: %v", err)
	}
	st := m.Stats()
	if st.EnginesLive != 0 || st.Evicted != 1 {
		t.Fatalf("stats after idle eviction: %+v", st)
	}
}

func TestOpenValidation(t *testing.T) {
	rejected := false
	m := newTestManager(t, Config{Validate: func(j sweep.Job) error {
		if j.DurationS > 1 {
			rejected = true
			return errTooLong
		}
		return nil
	}})
	if _, err := m.Open(OpenRequest{Job: testJob(1), CadenceTicks: -1}); err == nil {
		t.Fatal("negative cadence accepted")
	}
	if _, err := m.Open(OpenRequest{Job: testJob(1), TicksPerSec: -1}); err == nil {
		t.Fatal("negative pacing accepted")
	}
	long := testJob(1)
	long.DurationS = 5
	if _, err := m.Open(OpenRequest{Job: long}); err != errTooLong || !rejected {
		t.Fatalf("validator not consulted: %v", err)
	}
	bad := testJob(1)
	bad.Policy = "NoSuchPolicy"
	if _, err := m.Open(OpenRequest{Job: bad}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

var errTooLong = &validationError{"too long"}

type validationError struct{ msg string }

func (e *validationError) Error() string { return e.msg }
