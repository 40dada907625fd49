package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// run is the run core every session stream advances through: the live
// Session.Stream, the full log replay and the checkpoint seek step,
// frame and finish here, so their byte-identity is structural, not
// coincidental.
type run struct {
	eng        *sim.Engine
	job        sweep.Job
	cadence    int
	totalTicks int
	frame      Frame
	// buf holds the last marshaled frame; marshalFrame reuses it, so
	// the bytes it returns are valid until its next call.
	buf []byte
}

// newRun builds the engine of one job through the same job-to-config
// mapping the sweep runners use, with the manager-wide observer
// attached.
func (m *Manager) newRun(j sweep.Job, cadence int) (*run, error) {
	cfg, err := exp.JobConfig(m.traces, j)
	if err != nil {
		return nil, err
	}
	cfg.Observer = m.cfg.Observer
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &run{eng: eng, job: j, cadence: cadence, totalTicks: eng.TotalTicks()}, nil
}

// step advances one tick and returns the number of completed ticks.
func (r *run) step() (int, error) {
	if err := r.eng.Step(); err != nil {
		if err == io.EOF {
			err = errors.New("session: engine stepped past its run")
		}
		return 0, err
	}
	return r.eng.TickIndex(), nil
}

// framed reports whether the boundary after done completed ticks
// carries a frame: every cadence-th tick, and the final one.
func (r *run) framed(done int) bool {
	return done%r.cadence == 0 || done == r.totalTicks
}

// marshalFrame marshals the frame of the just-completed tick, read
// straight from the engine's tick state, into the run's reused buffer:
// the bytes are valid until the next call.
func (r *run) marshalFrame(done int) ([]byte, error) {
	r.frame.Tick = done
	r.eng.TickStateInto(&r.frame.TickState)
	var err error
	r.buf, err = appendFrame(r.buf[:0], &r.frame)
	return r.buf, err
}

// finish summarizes the completed run into its record.
func (r *run) finish() (sweep.Record, error) {
	res, err := r.eng.Finish()
	if err != nil {
		return sweep.Record{}, err
	}
	return sweep.NewRecord(r.job, res, 0), nil
}

// Replay runs a recorded session log against a fresh engine and emits
// the reconstructed stream: header, applied events and frames in
// boundary order, then the done (or error) terminal. The emitted bytes
// equal the original live stream's — the subsystem's central invariant.
// Replay is stateless: it admits no session and holds no state beyond
// the call.
func (m *Manager) Replay(lg *Log, emit Emit) error {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	if draining {
		return ErrDraining
	}
	if lg.Header.CadenceTicks < 1 {
		return fmt.Errorf("session: log cadence %d must be at least 1", lg.Header.CadenceTicks)
	}
	if m.cfg.Validate != nil {
		if err := m.cfg.Validate(lg.Header.Job); err != nil {
			return err
		}
	}
	return m.replay(lg, 0, checkpoint{}, emit)
}

// ReplayFrom re-emits the finished run's stream from a tick boundary:
// the header, then every event and frame with tick at or after fromTick,
// then the done terminal — exactly the full replay stream filtered to
// tick >= fromTick. The newest checkpoint strictly before fromTick seeds
// the engine so the prefix is restored, not re-simulated. Only a
// completed run seeks (ErrNotComplete otherwise; ErrClosed after
// eviction or drain).
func (s *Session) ReplayFrom(fromTick int, emit Emit) error {
	s.mu.Lock()
	s.touchLocked()
	if s.closeMsg != "" {
		s.mu.Unlock()
		return ErrClosed
	}
	if !s.finished || s.runErr != nil {
		s.mu.Unlock()
		return ErrNotComplete
	}
	if fromTick < 0 || fromTick > s.totalTicks {
		s.mu.Unlock()
		return fmt.Errorf("session: from_tick %d out of range [0, %d]", fromTick, s.totalTicks)
	}
	lg := &Log{Header: s.hdr, Events: append([]AppliedEvent(nil), s.events...)}
	var ck checkpoint
	for i := range s.ckpts {
		// Strictly before fromTick: the frame at fromTick itself is
		// produced by stepping tick fromTick, so the seek must start
		// below it.
		if s.ckpts[i].tick < fromTick {
			ck = s.ckpts[i]
		}
	}
	s.mu.Unlock()
	return s.mgr.replay(lg, fromTick, ck, emit)
}

// replay drives a fresh run through the log's events, applying each at
// its recorded boundary, and emits the header, then the events and
// frames whose tick is at least from, then the terminal. Events before
// from are applied silently: they shape the simulation either way;
// only the emission is filtered. A checkpoint (eng non-nil) seeds the
// run: structural events before it rebuilt the trace or the thermal
// model, inputs a restore does not copy, so they are re-applied
// (silently) before the restore, while policy swaps and migrations
// live entirely in copied state and must not rerun.
func (m *Manager) replay(lg *Log, from int, ck checkpoint, emit Emit) error {
	r, err := m.newRun(lg.Header.Job, lg.Header.CadenceTicks)
	if err != nil {
		return err
	}
	events := lg.Events
	for i := range events {
		if events[i].Tick >= r.totalTicks {
			return fmt.Errorf("session: log event seq %d at tick %d beyond the run's %d ticks",
				events[i].Seq, events[i].Tick, r.totalTicks)
		}
	}
	if ck.eng != nil {
		next := 0
		for ; next < len(events) && events[next].Tick < ck.tick; next++ {
			ae := &events[next]
			if !ae.Event.structural() {
				continue
			}
			if err := applyEvent(r.eng, r.job, ae.Tick, ae.Event); err != nil {
				return fmt.Errorf("session: re-applying event seq %d before checkpoint: %w", ae.Seq, err)
			}
		}
		if err := r.eng.Restore(ck.eng); err != nil {
			return fmt.Errorf("session: restoring checkpoint at tick %d: %w", ck.tick, err)
		}
		events = events[next:]
	}
	m.replays.Add(1)
	b, err := json.Marshal(&lg.Header)
	if err != nil {
		return err
	}
	if err := emit(StreamSession, b); err != nil {
		return err
	}
	next := 0
	for {
		b := r.eng.TickIndex()
		for next < len(events) && events[next].Tick == b {
			ae := &events[next]
			if err := applyEvent(r.eng, r.job, b, ae.Event); err != nil {
				// The header is out, so the failure travels as the
				// stream's one terminal, like a step failure's.
				return emitTerminal(emit, sweep.Record{},
					fmt.Errorf("session: replaying event seq %d at tick %d: %w", ae.Seq, b, err))
			}
			if b >= from {
				buf, err := json.Marshal(ae)
				if err != nil {
					return err
				}
				if err := emit(StreamEvent, buf); err != nil {
					return err
				}
			}
			next++
		}
		done, err := r.step()
		if err != nil {
			// The live session turned this step failure into its error
			// terminal; reproduce it, message and all.
			return emitTerminal(emit, sweep.Record{}, err)
		}
		if r.framed(done) && done >= from {
			buf, err := r.marshalFrame(done)
			if err != nil {
				return err
			}
			if err := emit(StreamFrame, buf); err != nil {
				return err
			}
		}
		if done == r.totalTicks {
			rec, err := r.finish()
			return emitTerminal(emit, rec, err)
		}
	}
}
