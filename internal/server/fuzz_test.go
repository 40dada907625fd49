package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// fuzzPost posts body to path through the Handler of a fresh server
// whose jobs run on a fake runner and pass the default validator, and
// checks what every answer must satisfy, whatever the body: the status
// is 200 or 4xx, never 5xx (a panic fails the run by itself), and a 4xx
// carries one JSON {"error": "…"} document and adds no cache entry. It
// returns the response for the route's own checks.
func fuzzPost(t *testing.T, path string, body []byte) *http.Response {
	t.Helper()
	s := New(Config{Workers: 1, Runner: newFakeRunner().run, MaxJobsPerSweep: 64})
	defer s.Stop()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	res := w.Result()
	switch code := res.StatusCode; {
	case code == http.StatusOK:
	case code >= 400 && code < 500:
		dec := json.NewDecoder(res.Body)
		dec.DisallowUnknownFields()
		var doc struct {
			Error *string `json:"error"`
		}
		if err := dec.Decode(&doc); err != nil || doc.Error == nil || *doc.Error == "" || dec.More() {
			t.Fatalf("POST %s answered %d without one {\"error\": …} document (decode err %v) for body %q", path, code, err, body)
		}
		s.mu.Lock()
		n := s.cache.Len()
		s.mu.Unlock()
		if n != 0 {
			t.Fatalf("POST %s answered %d and left %d cache entries for body %q", path, code, n, body)
		}
	default:
		t.Fatalf("POST %s answered %d for body %q", path, code, body)
	}
	return res
}

// decodeStrict decodes body as one JSON document into v, as the
// handlers must: unknown fields are errors, and so is anything but JSON
// whitespace (space, tab, CR, LF) after the document. It finds the tail
// by the decoder's offset rather than by the handlers' Token rule, so
// the two checks are independent.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("trailing data %q", rest)
	}
	return nil
}

// FuzzSweepBody fuzzes the POST /v1/sweep body. Beyond fuzzPost's
// checks, a 200 must be the JSONL stream of exactly the jobs the body's
// request expands to (Request.Jobs), in order, each record keyed and
// baseline-stamped as its job, ending in X-Sweep-Status: complete.
func FuzzSweepBody(f *testing.F) {
	add := func(req SweepRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tc := range badSweepRequests() {
		add(tc.req)
	}
	for _, tc := range stackScenarioCases(f) {
		add(SweepRequest{Spec: oneJobSpec(tc.sc)})
	}
	add(SweepRequest{Spec: smallSpec()})
	add(SweepRequest{Spec: smallSpec(), ShardIndex: 1, ShardCount: 2})
	for _, b := range malformedBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		res := fuzzPost(t, "/v1/sweep", body)
		if res.StatusCode != http.StatusOK {
			return
		}
		var req SweepRequest
		if err := decodeStrict(body, &req); err != nil {
			t.Fatalf("answered 200 to a body that does not decode (%v): %q", err, body)
		}
		jobs, err := req.Jobs()
		if err != nil {
			t.Fatalf("answered 200 to a request whose jobs fail (%v): %q", err, body)
		}
		dec := json.NewDecoder(res.Body)
		n := 0
		for ; dec.More(); n++ {
			var rec sweep.Record
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("record %d does not decode: %v", n, err)
			}
			if n >= len(jobs) {
				t.Fatalf("stream carries more than the request's %d jobs", len(jobs))
			}
			if rec.Key != jobs[n].Key() || rec.Baseline != jobs[n].Baseline {
				t.Fatalf("record %d is %q (baseline %v), want job %q (baseline %v)", n, rec.Key, rec.Baseline, jobs[n].Key(), jobs[n].Baseline)
			}
		}
		if n != len(jobs) {
			t.Fatalf("stream carries %d records, want the request's %d jobs", n, len(jobs))
		}
		if got := res.Trailer.Get("X-Sweep-Status"); got != "complete" {
			t.Fatalf("X-Sweep-Status %q, want complete", got)
		}
	})
}

// FuzzJobBody fuzzes the POST /v1/job body. Beyond fuzzPost's checks, a
// 200 must carry the record of the job the body decodes to: the fake
// runner's record for that job, wall clock stripped and baseline flag
// stamped from the job.
func FuzzJobBody(f *testing.F) {
	add := func(j sweep.Job) {
		b, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tc := range badSweepRequests() {
		// The size-gate rows declare too many jobs to expand; their
		// first job is all a job body can carry.
		if tc.req.Spec.NumJobs() <= 64 {
			if jobs := tc.req.Spec.Expand(); len(jobs) > 0 {
				add(jobs[0])
			}
		}
	}
	for _, tc := range stackScenarioCases(f) {
		add(oneJobSpec(tc.sc).Expand()[0])
	}
	add(smallSpec().Expand()[0])
	for _, b := range append([]string{"{"}, malformedBodies...) {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		res := fuzzPost(t, "/v1/job", body)
		if res.StatusCode != http.StatusOK {
			return
		}
		var j sweep.Job
		if err := decodeStrict(body, &j); err != nil {
			t.Fatalf("answered 200 to a body that does not decode (%v): %q", err, body)
		}
		want, err := newFakeRunner().run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		want.ElapsedMS, want.Baseline = 0, j.Baseline
		dec := json.NewDecoder(res.Body)
		var got sweep.Record
		if err := dec.Decode(&got); err != nil || dec.More() {
			t.Fatalf("answer is not one record document (decode err %v)", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("answered %+v, want job %q's record %+v", got, j.Key(), want)
		}
	})
}
