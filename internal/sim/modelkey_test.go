package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
)

// TestModelKey pins the canonical thermal-identity keys that sweep
// grouping and prewarming batch on: every stack keys on its spec's
// content hash in one namespace, grid mode adds its discretization, and
// nothing but the model fields reaches the key.
func TestModelKey(t *testing.T) {
	key := func(cfg Config) string {
		t.Helper()
		k, err := ModelKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	exp1 := Config{StackSpec: expSpec(t, floorplan.EXP1)}
	if key(Config{StackSpec: expSpec(t, floorplan.EXP3)}) == key(Config{StackSpec: expSpec(t, floorplan.EXP4)}) {
		t.Error("different experiments share a key")
	}
	if key(exp1) == key(Config{StackSpec: exp1.StackSpec, GridRows: 8, GridCols: 8}) {
		t.Error("grid discretization not part of the key")
	}
	// A run's own inputs never reach the key: runs that differ only in
	// them share one model.
	run := shortCfg(t, policy.NewDVFSTT())
	run.DPM = policy.DefaultDPM()
	run.DurationS = 7
	run.Sensors = thermal.SensorConfig{NoiseStdDevC: 0.5, Seed: 3}
	run.TrackLifetime = true
	if got, want := key(run), key(exp1); got != want {
		t.Errorf("a run's key %q differs from its stack's key %q", got, want)
	}

	spec := &floorplan.StackSpec{Name: "mk", Layers: []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores"}}}
	specKey := key(Config{StackSpec: spec})
	if want := "stack:" + spec.Hash(); specKey != want {
		t.Errorf("spec key %q, want %q", specKey, want)
	}
	changed := *spec
	changed.Layers = []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores", FreqScale: 0.7}}
	if key(Config{StackSpec: &changed}) == specKey {
		t.Error("spec content change did not change the key")
	}
	if got, want := key(Config{StackSpec: spec, GridRows: 4, GridCols: 8}), fmt.Sprintf("%s|grid4x8", specKey); got != want {
		t.Errorf("grid spec key %q, want %q", got, want)
	}
	degraded, err := floorplan.SpecWithResistivity(floorplan.EXP4, 0.46)
	if err != nil {
		t.Fatal(err)
	}
	if key(Config{StackSpec: &degraded}) == key(Config{StackSpec: expSpec(t, floorplan.EXP4)}) {
		t.Error("joint-resistivity override does not change the key")
	}

	// Configs with no canonical identity must error, not silently alias.
	if _, err := ModelKey(Config{StackSpec: exp1.StackSpec, GridRows: 8}); err == nil {
		t.Error("partial grid spec produced a model key")
	}
	if k, err := ModelKey(Config{StackSpec: exp1.StackSpec, GridRows: -1, GridCols: -1}); err == nil {
		t.Errorf("negative grid spec produced the model key %q", k)
	}
	if _, err := ModelKey(Config{}); err == nil {
		t.Error("config without a stack spec produced a model key")
	}
}

// TestRunStackSpec runs the engine end to end from a declarative spec
// and checks that a spec leaving the joint resistivity at its default
// and the explicitly resolved spec of the same experiment agree exactly
// (the byte-identity contract, observed through the engine).
func TestRunStackSpec(t *testing.T) {
	spec, err := floorplan.SpecForExperiment(floorplan.EXP2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := withTrace(t, Config{StackSpec: &spec, Policy: policy.NewDefault(), DurationS: 30}, "Web-med", 1)
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(testConfig(t, floorplan.EXP2, policy.NewDefault(), "Web-med", 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.EnergyJ != want.EnergyJ || got.Metrics.MaxTempC != want.Metrics.MaxTempC || got.Ticks != want.Ticks {
		t.Errorf("spec-built run diverged from builtin EXP-2: energy %g vs %g, maxT %g vs %g",
			got.EnergyJ, want.EnergyJ, got.Metrics.MaxTempC, want.Metrics.MaxTempC)
	}

	// An invalid spec fails at engine construction with a clear error.
	invalid := shortCfg(t, policy.NewDefault())
	invalid.StackSpec = &floorplan.StackSpec{}
	if _, err := Run(invalid); err == nil || !strings.Contains(err.Error(), "stack spec invalid") {
		t.Errorf("invalid spec error = %v, want mention of invalid stack spec", err)
	}
}

// TestEnginesShareModel pins how engines share one thermal model per
// ModelKey: two equal specs built apart reach the same model and
// factorization, as do a RunBatchContext group's lanes and a Fork; and
// Prewarm after ResetFactorCache rebuilds.
func TestEnginesShareModel(t *testing.T) {
	thermal.ResetFactorCache()
	t.Cleanup(thermal.ResetFactorCache)
	wantStats := func(what string, entries int, hits, builds int64) {
		t.Helper()
		if e, h, b := thermal.FactorCacheStats(); e != entries || h != hits || b != builds {
			t.Fatalf("%s: cache holds %d models after %d hits and %d builds, want %d/%d/%d", what, e, h, b, entries, hits, builds)
		}
	}
	engine := func(cfg Config) *Engine {
		t.Helper()
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	short := engine(shortCfg(t, policy.NewDefault()))
	spec, err := floorplan.SpecWithResistivity(floorplan.EXP1, 0)
	if err != nil {
		t.Fatal(err)
	}
	inlineCfg := shortCfg(t, policy.NewDefault())
	inlineCfg.StackSpec = &spec
	inline := engine(inlineCfg)
	if inline.model != short.model {
		t.Fatal("two equal EXP-1 specs built two models")
	}
	if _, err := thermal.NewTransientBatch([]*thermal.Transient{short.tr, inline.tr}); err != nil {
		t.Fatalf("engines of one model do not share a factorization: %v", err)
	}
	wantStats("two equal specs", 1, 1, 1)

	fork, err := short.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if fork.model != short.model {
		t.Fatal("a fork rebuilt the thermal model")
	}
	lanes := batchLaneCfgs(t)
	if _, err := RunBatchContext(context.Background(), lanes); err != nil {
		t.Fatal(err)
	}
	wantStats("batch lanes", 2, 1+int64(len(lanes)-1), 2)

	thermal.ResetFactorCache()
	if err := Prewarm(Config{StackSpec: expSpec(t, floorplan.EXP1)}); err != nil {
		t.Fatal(err)
	}
	wantStats("Prewarm after reset", 1, 0, 1)
	if engine(shortCfg(t, policy.NewDefault())).model == short.model {
		t.Fatal("an engine after reset got the dropped model")
	}
	wantStats("engine after Prewarm", 1, 1, 1)
}
