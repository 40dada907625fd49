package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/sweep"
)

// opRecorder is an http.ResponseWriter and http.Flusher that keeps the
// order of what a handler did to it: each write appends the SSE event
// name it carries, each flush appends "flush".
type opRecorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
	ops    []string
}

func newOpRecorder() *opRecorder { return &opRecorder{header: http.Header{}, code: http.StatusOK} }

func (w *opRecorder) Header() http.Header  { return w.header }
func (w *opRecorder) WriteHeader(code int) { w.code = code }
func (w *opRecorder) Flush()               { w.ops = append(w.ops, "flush") }
func (w *opRecorder) Write(b []byte) (int, error) {
	name, _, _ := strings.Cut(strings.TrimPrefix(string(b), "event: "), "\n")
	w.ops = append(w.ops, name)
	return w.body.Write(b)
}

// serve runs one request through the handler on the calling goroutine.
func serve(h http.Handler, w http.ResponseWriter, method, target, body string) {
	h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
}

// openSessionDirect admits a session through the handler and returns
// its info document.
func openSessionDirect(t *testing.T, h http.Handler, body string) sessionInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	serve(h, rec, http.MethodPost, "/v1/session", body)
	var info sessionInfo
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
		t.Fatalf("open: %d %s", rec.Code, rec.Body)
	}
	return info
}

// TestPacedSessionFlushesBeforeEachSleep pins the paced half of the
// flush rule: a session paced by ticks_per_sec flushes right after each
// frame, before its pacing sleep, and sends the last frame and the
// terminal, after which it never sleeps, with the handler's return.
func TestPacedSessionFlushesBeforeEachSleep(t *testing.T) {
	srv := New(Config{Workers: 1, SessionIdleTimeout: -1})
	t.Cleanup(srv.Stop)
	h := srv.Handler()

	info := openSessionDirect(t, h, `{"job":{"scenario":{"exp":1},"policy":"Default","bench":"gzip","seed":4,"duration_s":1},"cadence_ticks":1,"ticks_per_sec":2000}`)
	w := newOpRecorder()
	serve(h, w, http.MethodGet, "/v1/session/"+info.ID+"/stream", "")

	want := []string{"session"}
	for i := 1; i < info.TotalTicks; i++ {
		want = append(want, "frame", "flush")
	}
	want = append(want, "frame", "done")
	if got := strings.Join(w.ops, " "); got != strings.Join(want, " ") {
		t.Fatalf("paced stream made\n%s\nwant\n%s", got, strings.Join(want, " "))
	}
}

// TestReplayAndSeekNeverFlush pins the other half: an unpaced live
// stream, a replay and a seek never wait, so they never flush; net/http
// sends their bytes as its buffer fills and when the handler returns.
func TestReplayAndSeekNeverFlush(t *testing.T) {
	srv := New(Config{Workers: 1, SessionIdleTimeout: -1})
	t.Cleanup(srv.Stop)
	h := srv.Handler()

	info := openSessionDirect(t, h, `{"job":{"scenario":{"exp":1},"policy":"DVFS_TT","bench":"Web-med","seed":3,"duration_s":1},"cadence_ticks":1,"checkpoint_ticks":4}`)
	live := newOpRecorder()
	serve(h, live, http.MethodGet, "/v1/session/"+info.ID+"/stream", "")
	logRec := httptest.NewRecorder()
	serve(h, logRec, http.MethodGet, "/v1/session/"+info.ID+"/log", "")
	replay := newOpRecorder()
	serve(h, replay, http.MethodPost, "/v1/session/replay", logRec.Body.String())
	seek := newOpRecorder()
	serve(h, seek, http.MethodGet, "/v1/session/"+info.ID+"/replay?from_tick=6", "")

	for _, c := range []struct {
		name string
		w    *opRecorder
	}{{"unpaced live stream", live}, {"replay", replay}, {"seek", seek}} {
		if c.w.code != http.StatusOK || !strings.HasSuffix(strings.Join(c.w.ops, " "), "frame done") {
			t.Fatalf("%s: %d, ops %v", c.name, c.w.code, c.w.ops)
		}
		for _, op := range c.w.ops {
			if op == "flush" {
				t.Fatalf("%s flushed: ops %v", c.name, c.w.ops)
			}
		}
	}
	if !bytes.Equal(replay.body.Bytes(), live.body.Bytes()) {
		t.Fatal("replay differs from the live stream")
	}
}

// TestSweepFlushesBeforeWaiting pins the sweep half of the flush rule:
// a record that is ready reaches the client, response headers and all,
// before the handler blocks on the next job, in both framings.
func TestSweepFlushesBeforeWaiting(t *testing.T) {
	for _, c := range []struct{ name, accept string }{{"jsonl", ""}, {"sse", "text/event-stream"}} {
		t.Run(c.name, func(t *testing.T) {
			spec := smallSpec()
			jobs := spec.Expand()
			held := jobs[1].Key()
			release := make(chan struct{})
			releaseOnce := sync.OnceFunc(func() { close(release) })
			fr := newFakeRunner()
			run := func(ctx context.Context, j sweep.Job) (sweep.Record, error) {
				if j.Key() == held {
					select {
					case <-release:
					case <-ctx.Done():
						return sweep.Record{}, ctx.Err()
					}
				}
				return fr.run(ctx, j)
			}
			s := New(Config{Workers: 2, Runner: run, ValidateJob: allowAll})
			defer s.Stop()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer releaseOnce()

			body, err := json.Marshal(SweepRequest{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if c.accept != "" {
				req.Header.Set("Accept", c.accept)
			}
			// The first delivery is one JSONL line, or an SSE event's
			// "event:" and "data:" lines.
			lines := 1
			if c.accept != "" {
				lines = 2
			}
			type delivery struct {
				resp  *http.Response
				br    *bufio.Reader
				first string
				err   error
			}
			got := make(chan delivery, 1)
			go func() {
				resp, err := ts.Client().Do(req)
				if err != nil {
					got <- delivery{err: err}
					return
				}
				d := delivery{resp: resp, br: bufio.NewReader(resp.Body)}
				for i := 0; i < lines && d.err == nil; i++ {
					var line string
					line, d.err = d.br.ReadString('\n')
					d.first += line
				}
				got <- d
			}()
			var d delivery
			select {
			case d = <-got:
			case <-time.After(10 * time.Second):
				releaseOnce()
				if d = <-got; d.resp != nil {
					d.resp.Body.Close()
				}
				t.Fatalf("no record arrived while job %s was held", held)
			}
			if d.err != nil {
				t.Fatal(d.err)
			}
			defer d.resp.Body.Close()
			if !strings.Contains(d.first, fmt.Sprintf(`"key":%q`, jobs[0].Key())) {
				t.Fatalf("first delivery %q does not carry job %s", d.first, jobs[0].Key())
			}
			releaseOnce()
			rest := new(bytes.Buffer)
			if _, err := rest.ReadFrom(d.br); err != nil {
				t.Fatal(err)
			}
			if c.accept == "" {
				if st := d.resp.Trailer.Get("X-Sweep-Status"); st != "complete" {
					t.Fatalf("X-Sweep-Status = %q after release, want complete", st)
				}
			} else if !strings.Contains(rest.String(), fmt.Sprintf("event: done\ndata: {\"records\":%d}", len(jobs))) {
				t.Fatalf("stream after release ends without its done event:\n%s", rest)
			}
		})
	}
}

// TestWarmSweepCarriesTrailer pins the trailer of a JSONL sweep that
// never flushes: a warm one-record response fits net/http's buffer and
// leaves only when the handler returns, and it must still be chunked
// and carry X-Sweep-Status.
func TestWarmSweepCarriesTrailer(t *testing.T) {
	s := New(Config{Workers: 1, Runner: newFakeRunner().run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1}),
		Policies:   []string{"Default"},
		Benchmarks: []string{"Web-med"},
		DurationsS: []float64{1},
	}
	for _, pass := range []string{"cold", "warm"} {
		resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
		recs, err := sweep.LoadCheckpoint(resp.Body)
		resp.Body.Close()
		if err != nil || len(recs) != 1 {
			t.Fatalf("%s: %d records, %v", pass, len(recs), err)
		}
		if st := resp.Trailer.Get("X-Sweep-Status"); st != "complete" {
			t.Fatalf("%s one-record sweep: X-Sweep-Status = %q (Content-Length %d), want complete", pass, st, resp.ContentLength)
		}
	}
	if m := getMetrics(t, ts); m.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1 (the second sweep must be warm)", m.CacheHits)
	}
}
