package session

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Stream event names: the SSE event types a session stream emits, in
// canonical framing ("event: <name>\ndata: <json>\n\n").
const (
	// StreamSession is the stream's first event: the session Header.
	StreamSession = "session"
	// StreamFrame carries a Frame at the configured cadence.
	StreamFrame = "frame"
	// StreamEvent carries an AppliedEvent, emitted after the frame of
	// the tick it was applied at (if that frame is on cadence) and
	// before the frame of the first tick it influenced.
	StreamEvent = "event"
	// StreamDone terminates a completed run with its sweep.Record
	// (elapsed stripped, like every served record).
	StreamDone = "done"
	// StreamError terminates a failed run with {"error": message}.
	StreamError = "error"
	// StreamClosed terminates the stream of a session closed underneath
	// it (drain or eviction) with a Closed document.
	StreamClosed = "closed"
)

// Errors the HTTP layer maps to status codes.
var (
	// ErrStreaming rejects a second concurrent stream of one session.
	ErrStreaming = errors.New("session: already streaming")
	// ErrComplete rejects events and streams after the run finished.
	ErrComplete = errors.New("session: run complete")
	// ErrClosed rejects operations on an evicted or drained session.
	ErrClosed = errors.New("session: closed")
	// ErrNotComplete rejects checkpoint seeks into a session whose run
	// has not finished yet.
	ErrNotComplete = errors.New("session: run not complete yet")
)

// Emit delivers one stream event to the transport. Implementations are
// called from the streaming goroutine only; returning an error stops
// the stream (the engine keeps its position, so a reconnecting client
// resumes where the write failed). data is valid only during the call:
// a frame's bytes live in the run's reused buffer, so an
// implementation that keeps them must copy them.
type Emit func(event string, data []byte) error

// Frame is the per-cadence observation document of a session stream:
// the completed-tick count, then the engine's tick state inlined
// (encoding/json flattens the embedded struct, in its field order).
// The run core append-encodes it by hand into a reused buffer, byte
// for byte what json.Marshal produces.
type Frame struct {
	// Tick is the number of completed ticks this frame observes.
	Tick int `json:"tick"`
	sim.TickState
}

// Closed is the terminal document of a stream whose session was closed
// underneath it (graceful drain, eviction).
type Closed struct {
	// Reason says why: "draining", "evicted: idle", "evicted: capacity".
	Reason string `json:"reason"`
	// Tick is the boundary the run stopped at.
	Tick int `json:"tick"`
}

// checkpoint is one seek target: an unstepped fork of the engine at a
// tick boundary, taken before any event applied at that boundary.
// Seeks only read it, so concurrent seeks may restore from one.
type checkpoint struct {
	tick int
	eng  *sim.Engine
}

// Session is one live interactive run. The engine advances only inside
// Stream; ApplyEvent and the accessors synchronize through mu.
type Session struct {
	// ID is the session's opaque identifier.
	ID string

	hdr        Header
	totalTicks int
	tickS      float64
	pace       time.Duration
	ckptEvery  int
	mgr        *Manager

	mu sync.Mutex
	// run is the live run core; nil once the run finished, failed or
	// was closed (the engine is the dominant memory of a session).
	run      *run
	events   []AppliedEvent
	nextEmit int
	// pendingFrame is a marshaled frame whose emit failed mid-write; the
	// next stream delivers it first, so a reconnecting client's
	// concatenated streams stay byte-identical to the canonical replay.
	pendingFrame []byte
	ckpts        []checkpoint
	streaming    bool
	headerSent   bool
	finished     bool
	rec          sweep.Record
	runErr       error
	closeMsg     string
	closedTick   int
	closed       chan struct{}
	lastTouch    time.Time
}

// Header returns the session's log header.
func (s *Session) Header() Header { return s.hdr }

// TotalTicks returns the run length in sampling intervals.
func (s *Session) TotalTicks() int { return s.totalTicks }

// TickS returns the sampling interval in seconds.
func (s *Session) TickS() float64 { return s.tickS }

// CheckpointTicks returns the checkpoint cadence in force (0: no
// checkpoints).
func (s *Session) CheckpointTicks() int { return s.ckptEvery }

// touchLocked refreshes the idle clock; callers hold mu.
func (s *Session) touchLocked() { s.lastTouch = time.Now() }

// freeEngineLocked drops the engine (the dominant memory of a session)
// and moves the manager's live-engine gauge; callers hold mu.
func (s *Session) freeEngineLocked() {
	if s.run != nil {
		s.run = nil
		s.mgr.enginesLive.Add(-1)
	}
}

// closeLocked marks the session closed with a reason and frees its
// engine; callers hold mu. An active Stream observes the closed channel
// (or the reason at its next boundary) and emits the terminal event.
func (s *Session) closeLocked(reason string) {
	if s.closeMsg != "" {
		return
	}
	s.closeMsg = reason
	if s.run != nil {
		s.closedTick = s.run.eng.TickIndex()
	}
	close(s.closed)
	s.freeEngineLocked()
}

// ApplyEvent validates, normalizes, and applies one event at the
// current tick boundary, appending it to the event log. The returned
// AppliedEvent carries the boundary tick and sequence number. Events
// are rejected once the run is complete (ErrComplete) or the session is
// closed (ErrClosed); an event the engine refuses (unknown core, bad
// splice) is not logged.
func (s *Session) ApplyEvent(ev Event) (AppliedEvent, error) {
	if err := ev.Normalize(); err != nil {
		return AppliedEvent{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	if s.closeMsg != "" {
		return AppliedEvent{}, ErrClosed
	}
	if s.finished || s.run == nil {
		return AppliedEvent{}, ErrComplete
	}
	tick := s.run.eng.TickIndex()
	if err := applyEvent(s.run.eng, s.hdr.Job, tick, ev); err != nil {
		return AppliedEvent{}, err
	}
	ae := AppliedEvent{Type: RecordEvent, Tick: tick, Seq: len(s.events), Event: ev}
	s.events = append(s.events, ae)
	s.mgr.eventsTotal.Add(1)
	return ae, nil
}

// Log returns a copy of the session's event log so far (header plus
// applied events). Safe to call at any point of the session lifecycle.
func (s *Session) Log() *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	return &Log{Header: s.hdr, Events: append([]AppliedEvent(nil), s.events...)}
}

// Stream drives the engine to completion, emitting the canonical event
// stream: the session header (first stream only), applied events and
// frames in boundary order, then one terminal event — done with the
// run's record, error with the failure, or closed when the session is
// drained or evicted mid-run. Only one stream may be active per
// session (ErrStreaming otherwise); a stream of a closed session emits
// the closed terminal immediately, and a stream of a finished session
// re-emits its terminal. Pacing (Manager.OpenRequest.TicksPerSec)
// sleeps between boundaries without entering any frame, so paced and
// unpaced streams are byte-identical. flush, when non-nil, is called
// just before each pacing sleep, so a transport that buffers what emit
// writes delivers every frame before the stream waits; an unpaced
// stream never waits and never calls it.
func (s *Session) Stream(ctx context.Context, emit Emit, flush func()) error {
	s.mu.Lock()
	if s.streaming {
		s.mu.Unlock()
		return ErrStreaming
	}
	s.streaming = true
	s.touchLocked()
	sendHeader := !s.headerSent
	s.headerSent = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.streaming = false
		s.touchLocked()
		s.mu.Unlock()
	}()

	if sendHeader {
		b, err := json.Marshal(&s.hdr)
		if err == nil {
			err = emit(StreamSession, b)
		}
		if err != nil {
			s.mu.Lock()
			s.headerSent = false
			s.mu.Unlock()
			return err
		}
	}
	var evBufs [][]byte
	for {
		s.mu.Lock()
		if s.pendingFrame != nil {
			// A frame a previous stream failed to deliver precedes
			// everything, including events applied since the drop (they
			// landed at or after its boundary).
			b := s.pendingFrame
			s.mu.Unlock()
			if err := emit(StreamFrame, b); err != nil {
				return err
			}
			s.mu.Lock()
			s.pendingFrame = nil
		}
		if s.closeMsg != "" {
			doc := Closed{Reason: s.closeMsg, Tick: s.completedLocked()}
			s.mu.Unlock()
			b, err := json.Marshal(doc)
			if err != nil {
				return err
			}
			return emit(StreamClosed, b)
		}
		if s.finished {
			rec, runErr := s.rec, s.runErr
			s.mu.Unlock()
			return emitTerminal(emit, rec, runErr)
		}

		// Emit-pending events, the step, the checkpoint, and the frame
		// capture share one critical section: an event POSTed while the
		// previous batch streams out lands at the next boundary, exactly
		// where its log record says it did.
		evBufs = evBufs[:0]
		emitStart := s.nextEmit
		for s.nextEmit < len(s.events) {
			b, err := json.Marshal(&s.events[s.nextEmit])
			if err != nil {
				s.mu.Unlock()
				return err
			}
			evBufs = append(evBufs, b)
			s.nextEmit++
		}
		// The final step, the record and the engine's release share
		// this critical section too, so no event can ever be admitted
		// at the total-ticks boundary.
		var frameBuf []byte
		r := s.run
		done, err := r.step()
		if err == nil {
			if s.ckptEvery > 0 && done%s.ckptEvery == 0 && done < s.totalTicks {
				s.captureLocked(done)
			}
			if r.framed(done) {
				if frameBuf, err = r.marshalFrame(done); err != nil {
					s.mu.Unlock()
					return err
				}
			}
			if done == s.totalTicks {
				s.rec, err = r.finish()
			}
		}
		switch {
		case err != nil:
			s.failLocked(err)
		case done == s.totalTicks:
			s.finished = true
			s.freeEngineLocked()
		}
		finishedNow := s.finished
		s.mu.Unlock()

		for i, b := range evBufs {
			if err := emit(StreamEvent, b); err != nil {
				// Rewind so the next stream re-marshals (identically,
				// the log is immutable) from the undelivered record.
				s.mu.Lock()
				s.nextEmit = emitStart + i
				s.mu.Unlock()
				return err
			}
		}
		if frameBuf != nil {
			if err := emit(StreamFrame, frameBuf); err != nil {
				// frameBuf is the run core's reused buffer: keep a copy.
				s.mu.Lock()
				s.pendingFrame = append([]byte(nil), frameBuf...)
				s.mu.Unlock()
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if s.pace > 0 && !finishedNow {
			if flush != nil {
				flush()
			}
			t := time.NewTimer(s.pace)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-s.closed:
				t.Stop()
			}
		}
	}
}

// completedLocked returns the number of completed ticks; callers hold
// mu. After the engine is freed the run was either finished (all ticks)
// or closed at the boundary the log's last state describes.
func (s *Session) completedLocked() int {
	if s.run != nil {
		return s.run.eng.TickIndex()
	}
	if s.finished && s.runErr == nil {
		return s.totalTicks
	}
	return s.closedTick
}

// failLocked records a run failure and frees the engine; callers hold
// mu.
func (s *Session) failLocked(err error) {
	s.runErr = err
	s.finished = true
	if s.run != nil {
		s.closedTick = s.run.eng.TickIndex()
	}
	s.freeEngineLocked()
}

// captureLocked forks the engine at a checkpoint boundary; callers
// hold mu. Capture failures are non-fatal: checkpoints only accelerate
// seeks, and ReplayFrom falls back to replaying from the start.
func (s *Session) captureLocked(tick int) {
	f, err := s.run.eng.Fork()
	if err != nil {
		return
	}
	s.ckpts = append(s.ckpts, checkpoint{tick: tick, eng: f})
}

// emitTerminal emits the done-or-error terminal of a finished run.
func emitTerminal(emit Emit, rec sweep.Record, runErr error) error {
	if runErr != nil {
		b, err := json.Marshal(map[string]string{"error": runErr.Error()})
		if err != nil {
			return err
		}
		return emit(StreamError, b)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return emit(StreamDone, b)
}
