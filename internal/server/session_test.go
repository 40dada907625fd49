package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

const sessionOpenBody = `{"job":{"scenario":{"exp":1},"policy":"Default","bench":"gzip","seed":9,"duration_s":1},"cadence_ticks":2}`

func openSession(t *testing.T, base string, body string) sessionInfo {
	t.Helper()
	resp, err := http.Post(base+"/v1/session", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: %d %s", resp.StatusCode, b)
	}
	var info sessionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatalf("open response %s: %v", b, err)
	}
	return info
}

func streamSession(base, id string) (string, error) {
	resp, err := http.Get(base + "/v1/session/" + id + "/stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: %d %s", resp.StatusCode, b)
	}
	return string(b), nil
}

func metricsDoc(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSessionConcurrencyAndEviction drives the session subsystem the
// way a busy control room would — concurrent live sessions next to a
// batch sweep — and then through capacity pressure. Pinned properties:
// no cross-session bleed (identical event-free sessions stream
// identical bytes), clean eviction at -max-sessions, ErrLimit only when
// every resident session is mid-stream, and every completed or evicted
// session frees its engine (session_engines_live returns to zero).
// Run under -race this doubles as the subsystem's race test.
func TestSessionConcurrencyAndEviction(t *testing.T) {
	srv := New(Config{Workers: 2, MaxSessions: 3, SessionIdleTimeout: -1})
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Phase A: three concurrent live sessions of one job, plus a batch
	// sweep of a different job running through the worker pool at the
	// same time.
	infos := make([]sessionInfo, 3)
	for i := range infos {
		infos[i] = openSession(t, ts.URL, sessionOpenBody)
		for j := 0; j < i; j++ {
			if infos[j].ID == infos[i].ID {
				t.Fatalf("sessions %d and %d share ID %s", j, i, infos[i].ID)
			}
		}
	}
	streams := make([]string, len(infos))
	errs := make([]error, len(infos)+1)
	var wg sync.WaitGroup
	for i := range infos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i], errs[i] = streamSession(ts.URL, infos[i].ID)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := `{"spec":{"scenarios":[{"exp":2}],"policies":["Default"],"benchmarks":["gzip"],"durations_s":[0.5]}}`
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			errs[len(infos)] = err
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"scenario"`) {
			errs[len(infos)] = fmt.Errorf("sweep: %d %s", resp.StatusCode, b)
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent request %d: %v", i, err)
		}
	}
	for _, got := range streams {
		if !strings.Contains(got, "event: done\n") {
			t.Fatalf("session stream did not complete:\n%s", got)
		}
		if got != streams[0] {
			t.Fatalf("event-free sessions of one job diverged (cross-session bleed):\n%s\n----\n%s", got, streams[0])
		}
	}

	// Phase B: the three resident sessions are complete and idle, so at
	// the cap each new open evicts the oldest one. An event injected
	// before streaming must land in the new session only.
	evInfo := openSession(t, ts.URL, sessionOpenBody)
	resp, err := http.Post(ts.URL+"/v1/session/"+evInfo.ID+"/event", "application/json",
		strings.NewReader(`{"type":"fail_tsv","factor":4}`))
	if err != nil {
		t.Fatal(err)
	}
	evBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event: %d %s", resp.StatusCode, evBody)
	}
	evStream, err := streamSession(ts.URL, evInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(evStream, `"type":"fail_tsv"`) || evStream == streams[0] {
		t.Fatalf("injected event missing from its own session's stream:\n%s", evStream)
	}
	// One of the phase-A sessions was evicted to admit it, so exactly
	// one of them is gone from the server (404); the others still
	// re-answer their done terminal.
	evicted := 0
	for _, info := range infos {
		got, err := streamSession(ts.URL, info.ID)
		switch {
		case err != nil && strings.Contains(err.Error(), "404"):
			evicted++
		case err != nil:
			t.Fatalf("phase-A session %s: %v", info.ID, err)
		case !strings.Contains(got, "event: done\n"):
			t.Fatalf("surviving session %s did not re-answer its terminal:\n%s", info.ID, got)
		}
	}
	if evicted != 1 {
		t.Fatalf("%d phase-A sessions evicted, want 1", evicted)
	}

	// Phase C: everything resident is complete, so every engine is
	// freed, and the metrics agree.
	m := metricsDoc(t, ts.URL)
	if got := m["session_engines_live"].(float64); got != 0 {
		t.Fatalf("session_engines_live = %v after all sessions completed, want 0", got)
	}
	if got := m["sessions_open"].(float64); got != 3 {
		t.Fatalf("sessions_open = %v, want 3", got)
	}
	if got := m["sessions_opened_total"].(float64); got != 4 {
		t.Fatalf("sessions_opened_total = %v, want 4", got)
	}
	if got := m["sessions_evicted_total"].(float64); got != 1 {
		t.Fatalf("sessions_evicted_total = %v, want 1", got)
	}
	if got := m["session_events_total"].(float64); got != 1 {
		t.Fatalf("session_events_total = %v, want 1", got)
	}
}

// TestSessionReplayEndpoints pins the HTTP replay path: the recorded
// log fetched from /log replays byte-identically through POST
// /v1/session/replay, and a checkpoint seek streams the filtered
// suffix. The byte-level invariant itself is pinned exhaustively in
// internal/session; this covers the endpoint plumbing and error codes.
func TestSessionReplayEndpoints(t *testing.T) {
	srv := New(Config{Workers: 1, SessionIdleTimeout: -1})
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	info := openSession(t, ts.URL, `{"job":{"scenario":{"exp":1},"policy":"DVFS_TT","bench":"Web-med","seed":3,"duration_s":1},"cadence_ticks":1,"checkpoint_ticks":4}`)

	// Seek before completion: 409.
	resp, err := http.Get(ts.URL + "/v1/session/" + info.ID + "/replay?from_tick=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("seek before completion: %d, want 409", resp.StatusCode)
	}

	live, err := streamSession(ts.URL, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Event after completion: 409.
	resp, err = http.Post(ts.URL+"/v1/session/"+info.ID+"/event", "application/json",
		strings.NewReader(`{"type":"fail_tsv"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("event after completion: %d, want 409", resp.StatusCode)
	}

	// Fetch the log, replay it, compare byte-identically.
	resp, err = http.Get(ts.URL + "/v1/session/" + info.ID + "/log")
	if err != nil {
		t.Fatal(err)
	}
	logBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("log: %d %s", resp.StatusCode, logBody)
	}
	resp, err = http.Post(ts.URL+"/v1/session/replay", "application/x-ndjson", strings.NewReader(string(logBody)))
	if err != nil {
		t.Fatal(err)
	}
	replayed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s", resp.StatusCode, replayed)
	}
	if string(replayed) != live {
		t.Fatalf("replay differs from live stream:\nlive %d bytes, replay %d bytes", len(live), len(replayed))
	}

	// A seek streams a strict, non-empty suffix ending in the same
	// terminal.
	resp, err = http.Get(ts.URL + "/v1/session/" + info.ID + "/replay?from_tick=6")
	if err != nil {
		t.Fatal(err)
	}
	seek, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seek: %d %s", resp.StatusCode, seek)
	}
	s := string(seek)
	if !strings.Contains(s, "event: done\n") || strings.Contains(s, `"tick":5,`) || !strings.Contains(s, `"tick":6,`) {
		t.Fatalf("seek from tick 6 streamed the wrong window:\n%s", s)
	}

	// Bad inputs: unknown session 404, malformed log 400, bad from_tick 400.
	if resp, err = http.Get(ts.URL + "/v1/session/nosuch/stream"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Post(ts.URL+"/v1/session/replay", "application/x-ndjson", strings.NewReader("not a log")); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed log: %d, want 400", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/session/" + info.ID + "/replay?from_tick=banana"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from_tick: %d, want 400", resp.StatusCode)
	}
}

// TestSessionReplayEventFailureEndsInError pins the one-terminal
// promise for an external log the engine rejects mid-run: once the
// header is out the replay answers 200, and its stream ends in an error
// event carrying the failure instead of just stopping.
func TestSessionReplayEventFailureEndsInError(t *testing.T) {
	srv := New(Config{Workers: 1, SessionIdleTimeout: -1})
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	lg := `{"type":"session","job":{"scenario":{"exp":1},"policy":"Default","bench":"gzip","seed":1,"duration_s":0.5},"cadence_ticks":1}
{"type":"event","tick":2,"seq":0,"event":{"type":"migrate","from":0,"to":99}}
`
	resp, err := http.Post(ts.URL+"/v1/session/replay", "application/x-ndjson", strings.NewReader(lg))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s, want 200", resp.StatusCode, body)
	}
	events := strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n")
	const want = "event: error\n" + `data: {"error":"session: replaying event seq 0 at tick 2: sched: migrate 0-\u003e99 out of range"}`
	if last := events[len(events)-1]; last != want {
		t.Fatalf("replay stream ends with\n%s\nwant\n%s", last, want)
	}
}

// TestSessionDrainRefusal pins that a draining server refuses session
// opens and replays with 503 and closes resident sessions.
func TestSessionDrainRefusal(t *testing.T) {
	srv := New(Config{Workers: 1, SessionIdleTimeout: -1})
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	info := openSession(t, ts.URL, sessionOpenBody)
	srv.Drain()
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", strings.NewReader(sessionOpenBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open while draining: %d, want 503", resp.StatusCode)
	}
	// A replay builds an engine too, so a well-formed log is refused.
	replayLog := `{"type":"session","job":{"scenario":{"exp":1},"policy":"Default","bench":"gzip","seed":9,"duration_s":1},"cadence_ticks":2}` + "\n"
	resp, err = http.Post(ts.URL+"/v1/session/replay", "application/x-ndjson", strings.NewReader(replayLog))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replay while draining: %d, want 503", resp.StatusCode)
	}
	// The resident session was closed; its stream answers the closed
	// terminal (404 is also acceptable once evicted, but drain keeps
	// nothing resident).
	got, err := streamSession(ts.URL, info.ID)
	if err == nil {
		t.Fatalf("drained session still resident, streamed:\n%s", got)
	}
}
