package server

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sweep"
)

// TestReliabilityStreamByteIdenticalAndCacheIsolated pins the
// acceptance criteria of the lifetime subsystem's wire path:
//
//  1. A reliability-enabled sweep served over HTTP is byte-identical
//     to the same spec executed in-process through the canonical
//     framing (expansion order, ElapsedMS stripped) — the rel_* fields
//     are pure functions of the simulation, so serving must not
//     perturb them.
//  2. Reliability-enabled jobs and their plain twins have distinct
//     keys (the |rel suffix): running the plain spec first must not
//     let the cache serve field-less records to the reliability
//     request.
//  3. The /metrics lifetime counters account the reliability jobs.
func TestReliabilityStreamByteIdenticalAndCacheIsolated(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plain := smallSpec()
	rel := smallSpec()
	rel.Reliability = true

	// Warm the cache with the plain spec first: if reliability leaked
	// out of the job identity, the request below would be served these
	// field-less records.
	resp := postSweep(t, ts, SweepRequest{Spec: plain}, "")
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	jobs := rel.Expand()
	var want bytes.Buffer
	run, _ := exp.NewRunners(exp.RunnerHooks{})
	if _, err := sweep.Execute(context.Background(), jobs, run, sweep.Options{Workers: 4},
		sweep.NewOrderedSink(sweep.StripElapsed(sweep.NewJSONLSink(&want)), jobs)); err != nil {
		t.Fatal(err)
	}

	before := getMetrics(t, ts)
	resp = postSweep(t, ts, SweepRequest{Spec: rel}, "")
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.Trailer.Get("X-Sweep-Status"); st != "complete" {
		t.Fatalf("X-Sweep-Status trailer = %q, want complete", st)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served reliability stream differs from in-process run:\nserved:\n%s\nin-process:\n%s", got, want.Bytes())
	}
	if !strings.Contains(string(got), `"rel_worst_cycle_damage"`) ||
		!strings.Contains(string(got), `"rel_mttf"`) {
		t.Fatal("reliability-enabled stream carries no rel_* fields")
	}

	after := getMetrics(t, ts)
	if cached := after.CacheHits - before.CacheHits; cached != 0 {
		t.Errorf("reliability request scored %d cache hits off the plain sweep, want 0", cached)
	}
	if n := after.ReliabilityJobs - before.ReliabilityJobs; n != int64(len(jobs)) {
		t.Errorf("reliability_jobs_total moved by %d, want %d", n, len(jobs))
	}
	if after.CycleDamageTotal <= before.CycleDamageTotal {
		t.Error("cycle_damage_total did not grow")
	}
	if after.WorstBlockDamageMax <= 0 {
		t.Error("worst_block_cycle_damage_max not recorded")
	}

	// Replay: the reliability records must now be cache hits carrying
	// the identical bytes (rel fields survive the cache round-trip).
	resp = postSweep(t, ts, SweepRequest{Spec: rel}, "")
	got2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want.Bytes()) {
		t.Fatal("cached reliability replay differs from the first stream")
	}
	final := getMetrics(t, ts)
	if hits := final.CacheHits - after.CacheHits; hits != int64(len(jobs)) {
		t.Errorf("replay scored %d cache hits, want %d", hits, len(jobs))
	}
	if final.ReliabilityJobs != after.ReliabilityJobs {
		t.Error("cache hits must not count as reliability jobs")
	}
}
