package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/session"
)

// TestInputsDeriveFromSeed pins that every generated input is a pure
// function of the workload seed.
func TestInputsDeriveFromSeed(t *testing.T) {
	gen := func(seed int64) string {
		rng := newRand(seed, "served-mix")
		pool := newWarmPool(rng)
		pool.refs = make([]string, len(pool.reqs))
		plan, err := planServed(rng, 50, pool)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, p := range plan {
			doc, err := json.Marshal(p.req)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(doc)
		}
		srng := newRand(seed, "session-stream")
		sp := planSession(srng, []string{"Default", "DVFS_TT"})
		doc, _ := json.Marshal(sp.storm)
		b.Write(doc)
		for _, d := range arrivals(rng, servedRate, 10) {
			b.WriteString(d.String())
		}
		return b.String() + fig3Spec(seed).Benchmarks[0] + gridRelSpec(seed).Benchmarks[0]
	}
	if gen(7) != gen(7) {
		t.Fatal("the same seed generated different inputs")
	}
	if gen(7) == gen(8) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestArrivalsAreIncreasingAtRate(t *testing.T) {
	due := arrivals(newRand(1, "x"), 100, 2000)
	for i := 1; i < len(due); i++ {
		if due[i] <= due[i-1] {
			t.Fatalf("due times not increasing at %d", i)
		}
	}
	if span := due[len(due)-1]; span < 18*time.Second || span > 22*time.Second {
		t.Fatalf("2000 arrivals at 100/s span %v", span)
	}
}

// TestPerturbedStacksAreDistinct checks that every cold-stack spec
// carries a new content hash and still builds.
func TestPerturbedStacksAreDistinct(t *testing.T) {
	rng := newRand(3, "stacks")
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		spec, err := perturbedStack(rng, floorplan.EXP2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Build(); err != nil {
			t.Fatal(err)
		}
		h := spec.Hash()
		if seen[h] {
			t.Fatalf("hash %s repeated", h)
		}
		seen[h] = true
	}
}

func TestEventStormIsValid(t *testing.T) {
	for _, ev := range eventStorm(newRand(5, "storm"), []string{"Default", "DVFS_TT"}, 8, 200) {
		e := ev
		if err := e.Normalize(); err != nil {
			t.Fatalf("%+v: %v", ev, err)
		}
		if e.Type == session.EventMigrate && (e.From >= 8 || e.To >= 8) {
			t.Fatalf("migration %d->%d outside 8 cores", e.From, e.To)
		}
	}
}

// TestSeekTail checks the live-stream filter a checkpoint seek must
// reproduce.
func TestSeekTail(t *testing.T) {
	live := "event: session\ndata: {\"type\":\"session\"}\n\n" +
		"event: frame\ndata: {\"tick\":1}\n\n" +
		"event: event\ndata: {\"type\":\"event\",\"tick\":1,\"seq\":0}\n\n" +
		"event: frame\ndata: {\"tick\":2}\n\n" +
		"event: done\ndata: {\"key\":\"k\"}\n\n"
	evs, err := readSSE(strings.NewReader(live), nil)
	if err != nil || len(evs) != 5 {
		t.Fatalf("parsed %d events, err %v", len(evs), err)
	}
	if got := string(tail(evs, 0)); got != live {
		t.Fatalf("tail from 0 differs from the stream:\n%s", got)
	}
	want := "event: session\ndata: {\"type\":\"session\"}\n\n" +
		"event: frame\ndata: {\"tick\":2}\n\n" +
		"event: done\ndata: {\"key\":\"k\"}\n\n"
	if got := string(tail(evs, 2)); got != want {
		t.Fatalf("tail from 2:\n%s\nwant\n%s", got, want)
	}
}

// TestRunComplete pins which refused events end a storm without failing
// it: only the 409 for a completed run, not a closed or evicted session.
func TestRunComplete(t *testing.T) {
	wrap := func(code int, msg string) error {
		return fmt.Errorf("POST /v1/session/x/event: %w", &statusError{code: code, body: `{"error":"` + msg + `"}`})
	}
	if !runComplete(wrap(http.StatusConflict, session.ErrComplete.Error())) {
		t.Error("the completed-run 409 was not recognized")
	}
	for _, err := range []error{
		nil,
		wrap(http.StatusConflict, session.ErrClosed.Error()),
		wrap(http.StatusBadRequest, session.ErrComplete.Error()),
		errors.New(session.ErrComplete.Error()),
	} {
		if runComplete(err) {
			t.Errorf("%v counted as a completed run", err)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] printed", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, layerMetrics)
}
