package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Manager defaults.
const (
	// DefaultMaxSessions bounds resident sessions when Config leaves
	// MaxSessions zero.
	DefaultMaxSessions = 64
	// DefaultIdleTimeout evicts sessions idle this long when Config
	// leaves IdleTimeout zero.
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultCheckpointTicks is the checkpoint cadence when the open
	// request leaves it unset.
	DefaultCheckpointTicks = 256
	// maxTicksPerSec bounds requested stream pacing; above this the
	// pacing sleep is shorter than its own overhead, so the stream just
	// runs unpaced.
	maxTicksPerSec = 1e6
)

// ErrDraining rejects session opens on a draining manager.
var ErrDraining = errors.New("session: manager is draining")

// ErrLimit rejects session opens when every resident session is
// actively streaming and the session cap is reached.
var ErrLimit = errors.New("session: session limit reached")

// ErrNotFound reports an unknown (or already evicted) session ID.
var ErrNotFound = errors.New("session: not found")

// Config tunes a Manager.
type Config struct {
	// MaxSessions bounds resident sessions (0: DefaultMaxSessions).
	// At the cap, opening a session evicts the oldest idle one; when
	// every session is mid-stream the open fails with ErrLimit.
	MaxSessions int
	// IdleTimeout evicts sessions untouched this long (0:
	// DefaultIdleTimeout; negative: idle eviction off).
	IdleTimeout time.Duration
	// Observer, when non-nil, is attached to every session and replay
	// engine (the serving layer feeds its tick-throughput metric here).
	// Frames do not need it: they read the engine's tick state. Must be
	// safe for concurrent calls across sessions.
	Observer sim.Observer
	// Validate vets the job of every open and replay request before an
	// engine is built (nil: no extra validation; the server injects its
	// sweep-request gates here).
	Validate func(sweep.Job) error
}

// Manager owns the resident sessions: bounded admission, capacity and
// idle eviction, replay, and drain. One manager serves one server.
type Manager struct {
	cfg    Config
	traces *workload.TraceCache

	mu       sync.Mutex
	sessions map[string]*Session
	draining bool

	janitorStop chan struct{}
	janitorDone chan struct{}

	opened      atomic.Int64
	eventsTotal atomic.Int64
	replays     atomic.Int64
	evicted     atomic.Int64
	enginesLive atomic.Int64
}

// Stats is a point-in-time view of the manager's gauges and counters,
// for /metrics.
type Stats struct {
	// Open counts resident sessions (running or finished-but-retained).
	Open int
	// EnginesLive counts sessions still holding a live engine; a
	// finished, killed, or evicted session has freed its engine.
	EnginesLive int64
	// Opened, Events, Replays, Evicted are monotonic totals.
	Opened  int64
	Events  int64
	Replays int64
	Evicted int64
}

// NewManager builds a manager and starts its idle-eviction janitor.
// Close it when the server stops.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	m := &Manager{
		cfg:         cfg,
		traces:      workload.NewTraceCache(),
		sessions:    make(map[string]*Session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go m.janitor()
	return m
}

// OpenRequest describes one session to open.
type OpenRequest struct {
	// Job is the simulation to run, same schema as a sweep job.
	Job sweep.Job `json:"job"`
	// CadenceTicks emits a frame after every CadenceTicks-th completed
	// tick (0: every tick; the final tick always gets a frame).
	CadenceTicks int `json:"cadence_ticks,omitempty"`
	// CheckpointTicks captures a seekable checkpoint every this many
	// ticks (0: DefaultCheckpointTicks; negative: no checkpoints).
	CheckpointTicks int `json:"checkpoint_ticks,omitempty"`
	// TicksPerSec paces the stream to roughly this many simulated
	// ticks per wall-clock second (0: unpaced — as fast as the engine
	// steps). Pacing never changes the stream's bytes.
	TicksPerSec float64 `json:"ticks_per_sec,omitempty"`
}

// Open validates the request, builds the engine, and admits the
// session, evicting the oldest idle session if the cap is reached.
func (m *Manager) Open(req OpenRequest) (*Session, error) {
	if req.CadenceTicks < 0 {
		return nil, fmt.Errorf("session: negative cadence %d", req.CadenceTicks)
	}
	if req.CadenceTicks == 0 {
		req.CadenceTicks = 1
	}
	if req.TicksPerSec < 0 || req.TicksPerSec > maxTicksPerSec {
		return nil, fmt.Errorf("session: ticks_per_sec %g out of range [0, %g]", req.TicksPerSec, float64(maxTicksPerSec))
	}
	ckptEvery := req.CheckpointTicks
	switch {
	case ckptEvery == 0:
		ckptEvery = DefaultCheckpointTicks
	case ckptEvery < 0:
		ckptEvery = 0
	}
	if m.cfg.Validate != nil {
		if err := m.cfg.Validate(req.Job); err != nil {
			return nil, err
		}
	}

	s := &Session{
		hdr:       Header{Type: RecordSession, Job: req.Job, CadenceTicks: req.CadenceTicks},
		ckptEvery: ckptEvery,
		mgr:       m,
		closed:    make(chan struct{}),
	}
	if req.TicksPerSec > 0 {
		s.pace = time.Duration(float64(time.Second) / req.TicksPerSec)
	}
	r, err := m.newRun(req.Job, req.CadenceTicks)
	if err != nil {
		return nil, err
	}
	s.run = r
	s.totalTicks = r.totalTicks
	s.tickS = r.eng.TickS()
	s.touchLocked() // construction counts as a touch; no lock needed yet
	if ckptEvery > 0 {
		// The boundary-0 checkpoint, so seeks before the first cadence
		// checkpoint restore instead of replaying the prefix.
		s.captureLocked(0)
	}

	id, err := newID()
	if err != nil {
		return nil, err
	}
	s.ID = id

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		if !m.evictOldestIdleLocked() {
			m.mu.Unlock()
			return nil, ErrLimit
		}
	}
	// Counters move before the session becomes visible, so a concurrent
	// eviction can never decrement enginesLive ahead of its increment.
	m.opened.Add(1)
	m.enginesLive.Add(1)
	m.sessions[id] = s
	m.mu.Unlock()
	return s, nil
}

// Get returns a resident session by ID.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// evictOldestIdleLocked evicts the least-recently-touched session that
// is not mid-stream, reporting whether one was found; callers hold
// m.mu.
func (m *Manager) evictOldestIdleLocked() bool {
	var victim *Session
	var victimID string
	var oldest time.Time
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := !s.streaming
		touch := s.lastTouch
		s.mu.Unlock()
		if !idle {
			continue
		}
		if victim == nil || touch.Before(oldest) {
			victim, victimID, oldest = s, id, touch
		}
	}
	if victim == nil {
		return false
	}
	m.evictLocked(victimID, victim, "evicted: capacity")
	return true
}

// evictLocked removes one session and closes it; callers hold m.mu.
func (m *Manager) evictLocked(id string, s *Session, reason string) {
	delete(m.sessions, id)
	s.mu.Lock()
	s.closeLocked(reason)
	s.mu.Unlock()
	m.evicted.Add(1)
}

// EvictIdle evicts every non-streaming session untouched since before
// the deadline, returning how many were evicted. The janitor calls it
// with now minus the idle timeout; tests may call it directly.
func (m *Manager) EvictIdle(deadline time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := !s.streaming && s.lastTouch.Before(deadline)
		s.mu.Unlock()
		if idle {
			m.evictLocked(id, s, "evicted: idle")
			n++
		}
	}
	return n
}

// janitor periodically evicts idle sessions until Close.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	if m.cfg.IdleTimeout < 0 {
		<-m.janitorStop
		return
	}
	interval := m.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			m.EvictIdle(now.Add(-m.cfg.IdleTimeout))
		case <-m.janitorStop:
			return
		}
	}
}

// Drain closes every resident session — active streams emit the closed
// terminal — and refuses new opens. Replays of already-recorded logs
// are refused too (they build engines). Idempotent.
func (m *Manager) Drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draining = true
	for id, s := range m.sessions {
		delete(m.sessions, id)
		s.mu.Lock()
		s.closeLocked("draining")
		s.mu.Unlock()
	}
}

// Close drains the manager and stops its janitor.
func (m *Manager) Close() {
	m.Drain()
	m.mu.Lock()
	stopped := m.janitorStop
	m.mu.Unlock()
	select {
	case <-stopped:
	default:
		close(stopped)
	}
	<-m.janitorDone
}

// Stats snapshots the manager's gauges and counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	open := len(m.sessions)
	m.mu.Unlock()
	return Stats{
		Open:        open,
		EnginesLive: m.enginesLive.Load(),
		Opened:      m.opened.Load(),
		Events:      m.eventsTotal.Load(),
		Replays:     m.replays.Load(),
		Evicted:     m.evicted.Load(),
	}
}

// newID returns a 128-bit random hex session ID.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}
