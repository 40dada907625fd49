package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/session"
)

// sessionInfo is the POST /v1/session response document.
type sessionInfo struct {
	// ID addresses the session in the /v1/session/{id}/... endpoints.
	ID string `json:"id"`
	// TotalTicks is the run length in sampling intervals.
	TotalTicks int `json:"total_ticks"`
	// TickS is the sampling interval, seconds.
	TickS float64 `json:"tick_s"`
	// CadenceTicks is the frame cadence in force.
	CadenceTicks int `json:"cadence_ticks"`
	// CheckpointTicks is the checkpoint cadence in force (0: none).
	CheckpointTicks int `json:"checkpoint_ticks"`
}

// handleSessionOpen admits one interactive session (POST /v1/session,
// body: a session.OpenRequest) and answers its info document.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req session.OpenRequest
	if err := decodeBody(w, r, 1<<20, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad session request: %v", err)
		return
	}
	sess, err := s.sessions.Open(req)
	switch {
	case err == nil:
	case errors.Is(err, session.ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, session.ErrLimit):
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	default:
		httpError(w, http.StatusBadRequest, "bad session request: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sessionInfo{
		ID:              sess.ID,
		TotalTicks:      sess.TotalTicks(),
		TickS:           sess.TickS(),
		CadenceTicks:    sess.Header().CadenceTicks,
		CheckpointTicks: sess.CheckpointTicks(),
	})
}

// getSession resolves the request's {id} to a resident session, writing
// the 404 itself when there is none.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request) *session.Session {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return nil
	}
	return sess
}

// handleSessionStream serves the session's live SSE stream
// (GET /v1/session/{id}/stream). One stream at a time per session.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	st := newSSE(w)
	err := sess.Stream(r.Context(), st.event, st.flush)
	if err != nil && !st.wrote {
		if errors.Is(err, session.ErrStreaming) {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleSessionEvent injects one event (POST /v1/session/{id}/event,
// body: a session.Event) and answers the applied-event log record.
func (s *Server) handleSessionEvent(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<10))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad event: %v", err)
		return
	}
	ev, err := session.ParseEvent(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ae, err := sess.ApplyEvent(ev)
	switch {
	case err == nil:
	case errors.Is(err, session.ErrComplete) || errors.Is(err, session.ErrClosed):
		httpError(w, http.StatusConflict, "%v", err)
		return
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ae)
}

// handleSessionLog serves the session's event log so far
// (GET /v1/session/{id}/log) as JSONL — the exact document
// POST /v1/session/replay accepts.
func (s *Server) handleSessionLog(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	sess.Log().Encode(w)
}

// handleSessionSeek re-streams a finished session from a tick boundary
// (GET /v1/session/{id}/replay?from_tick=T), seeded by the newest
// checkpoint before the boundary.
func (s *Server) handleSessionSeek(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	fromTick := 0
	if v := r.URL.Query().Get("from_tick"); v != "" {
		var err error
		if fromTick, err = strconv.Atoi(v); err != nil {
			httpError(w, http.StatusBadRequest, "bad from_tick %q: %v", v, err)
			return
		}
	}
	st := newSSE(w)
	err := sess.ReplayFrom(fromTick, st.event)
	if err != nil && !st.wrote {
		switch {
		case errors.Is(err, session.ErrNotComplete) || errors.Is(err, session.ErrClosed):
			httpError(w, http.StatusConflict, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
	}
}

// handleSessionReplay replays a recorded event log against a fresh
// engine (POST /v1/session/replay, body: the JSONL log), streaming the
// reconstructed session byte-identically to the original live stream.
func (s *Server) handleSessionReplay(w http.ResponseWriter, r *http.Request) {
	lg, err := session.ParseLog(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := newSSE(w)
	err = s.sessions.Replay(lg, st.event)
	if err != nil && !st.wrote {
		switch {
		case errors.Is(err, session.ErrDraining):
			httpError(w, http.StatusServiceUnavailable, "server is draining")
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
	}
}
