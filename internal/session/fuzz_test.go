package session

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// fuzzRig holds one live engine fuzz inputs are applied to, rebuilt
// when a run completes. Each fuzzed fail_tsv factor builds a private
// degraded model that replaces the last one and never enters the
// shared model cache, so nothing is retained per factor.
var fuzzRig struct {
	sync.Mutex
	eng *sim.Engine
	job sweep.Job
}

func fuzzEngine(t *testing.T) *sim.Engine {
	t.Helper()
	if fuzzRig.eng != nil {
		return fuzzRig.eng
	}
	fuzzRig.job = sweep.Job{
		Scenario:  sweep.Scenario{Exp: floorplan.EXP1},
		Policy:    "Default",
		Bench:     "gzip",
		Seed:      1,
		DurationS: 0.5,
	}
	m := NewManager(Config{IdleTimeout: -1})
	t.Cleanup(m.Close)
	r, err := m.newRun(fuzzRig.job, 1)
	if err != nil {
		t.Fatal(err)
	}
	fuzzRig.eng = r.eng
	return r.eng
}

// FuzzSessionEvent fuzzes the event codec and the application path: any
// accepted event round-trips byte-stably through JSON and the log wire
// form, and applying it to a live engine never panics — it either takes
// effect or is rejected with an error.
func FuzzSessionEvent(f *testing.F) {
	seeds := []string{
		`{"type":"set_policy","policy":"CGate"}`,
		`{"type":"set_policy","policy":"Adapt3D&DVFS_TT"}`,
		`{"type":"set_workload","bench":"Web-med"}`,
		`{"type":"set_workload","bench":"gcc","seed":42}`,
		`{"type":"fail_tsv"}`,
		`{"type":"fail_tsv","factor":1.5}`,
		`{"type":"migrate","from":0,"to":4}`,
		`{"type":"migrate","from":3,"to":1,"tail":true}`,
		`{"type":"migrate","from":0,"to":4096}`,
		`{"type":"fail_tsv","factor":-3}`,
		`{"type":"set_policy","policy":"CGate","bench":"gzip"}`,
		`{"type":"???"}`,
		`{"type":"fail_tsv","factor":1e308}`,
		`not json at all`,
		`{"type":"set_workload","bench":"gzip","seed":-9223372036854775808}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := ParseEvent(data)
		if err != nil {
			return // rejected inputs must simply not be accepted
		}

		// Canonical form: marshaling and re-parsing is the identity.
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("accepted event %+v does not marshal: %v", ev, err)
		}
		ev2, err := ParseEvent(b)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", b, err)
		}
		if ev2 != ev {
			t.Fatalf("event changed across round trip: %+v -> %+v", ev, ev2)
		}

		// Log wire form: encode, parse, compare.
		lg := &Log{
			Header: Header{Type: RecordSession, Job: sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "Default", Bench: "gzip", DurationS: 0.5}, CadenceTicks: 1},
			Events: []AppliedEvent{{Type: RecordEvent, Tick: 0, Seq: 0, Event: ev}},
		}
		var buf bytes.Buffer
		if err := lg.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		lg2, err := ParseLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("encoded log does not parse: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(lg, lg2) {
			t.Fatalf("log changed across round trip:\nbefore %+v\nafter  %+v", lg, lg2)
		}

		// Mid-run application must never panic, and a rejected event
		// must leave the engine steppable.
		fuzzRig.Lock()
		defer fuzzRig.Unlock()
		eng := fuzzEngine(t)
		_ = applyEvent(eng, fuzzRig.job, eng.TickIndex(), ev)
		if err := eng.Step(); err != nil {
			// The run completed; the next input gets a fresh engine.
			fuzzRig.eng = nil
		}
	})
}
