package session

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/power"
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

// frameFiller fills a Frame from fuzz bytes by reflection, so a field
// added to sim.TickState is filled (and must be encoded) without this
// test changing. Ints and floats take 8 bytes each, floats by their raw
// bits (so NaN, ±Inf, −0 and subnormals occur); a bool takes one byte;
// a slice takes a length byte, 0 for nil and n > 0 for (n-1)%9
// elements. Bytes past the end of the input read as zero.
type frameFiller struct {
	t    *testing.T
	data []byte
}

func (f *frameFiller) next(n int) []byte {
	b := make([]byte, n)
	f.data = f.data[copy(b, f.data):]
	return b
}

func (f *frameFiller) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Int:
		v.SetInt(int64(binary.LittleEndian.Uint64(f.next(8))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(f.next(8))))
	case reflect.Bool:
		v.SetBool(f.next(1)[0]&1 == 1)
	case reflect.Slice:
		n := int(f.next(1)[0])
		if n == 0 {
			return
		}
		s := reflect.MakeSlice(v.Type(), (n-1)%9, (n-1)%9)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	default:
		f.t.Fatalf("frame field of type %s has no fuzz filler; appendFrame needs an encoder for it too", v.Type())
	}
}

// frameBytes appends the fuzz input that frameFiller turns into v (its
// slices at most 8 long), so seeds read as frames.
func frameBytes(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = frameBytes(b, v.Field(i))
		}
	case reflect.Int:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Float64:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = append(b, byte(v.Len()+1))
		for i := 0; i < v.Len(); i++ {
			b = frameBytes(b, v.Index(i))
		}
	}
	return b
}

// FuzzFrameJSON holds the hand-written frame encoder to encoding/json:
// appendFrame must append exactly json.Marshal's bytes, or fail with
// the same error text (a NaN or infinite float).
func FuzzFrameJSON(f *testing.F) {
	seed := func(fr Frame) { f.Add(frameBytes(nil, reflect.ValueOf(fr))) }
	// The 'f'/'e' format edges one ulp either side, zeros, extremes and
	// the values json.Marshal rejects; the other slices stay nil.
	for _, v := range []float64{
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64,
		123.456, 1.5e-7, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		seed(Frame{TickState: sim.TickState{TimeS: v, PowerW: -v, MaxBlockC: v, CoreTempsC: []float64{v, -v}}})
	}
	seed(Frame{Tick: 7, TickState: sim.TickState{
		CoreTempsC: []float64{}, Levels: []power.VfLevel{}, Gated: []bool{},
		Sleeping: []bool{}, QueueLens: []int{}, Utils: []float64{},
	}})
	seed(Frame{Tick: -12, TickState: sim.TickState{
		TimeS: 1.5, PowerW: 20.25, MaxBlockC: 85, CoreTempsC: []float64{80.5, 79},
		Levels: []power.VfLevel{-1, 2}, Gated: []bool{true, false}, Sleeping: []bool{false, true},
		QueueLens: []int{math.MinInt, 4}, Utils: []float64{0.75, 1e-9},
	}})
	seed(Frame{})

	prefix := []byte("data: ")
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		(&frameFiller{t: t, data: data}).fill(reflect.ValueOf(&fr).Elem())
		want, wantErr := json.Marshal(&fr)
		got, gotErr := appendFrame(append([]byte(nil), prefix...), &fr)
		switch {
		case wantErr != nil || gotErr != nil:
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("frame %+v: appendFrame error %v, json.Marshal error %v", fr, gotErr, wantErr)
			}
		case !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want):
			t.Fatalf("frame %+v:\nappendFrame  %s\njson.Marshal %s", fr, got, want)
		}
	})
}
