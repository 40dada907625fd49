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
// content hash in one namespace, and the Exp shorthand keys exactly
// like the spec it resolves to.
func TestModelKey(t *testing.T) {
	key := func(cfg Config) string {
		t.Helper()
		k, err := ModelKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	resolved := func(e floorplan.Experiment, jr float64) *floorplan.StackSpec {
		t.Helper()
		spec, err := floorplan.SpecWithResistivity(e, jr)
		if err != nil {
			t.Fatal(err)
		}
		return &spec
	}

	// Zero-valued fields resolve to the run defaults.
	if got, want := key(Config{}), key(Config{Exp: floorplan.EXP1, JointResistivityMKW: 0.23, TickS: 0.1}); got != want {
		t.Errorf("zero config key %q != defaulted key %q", got, want)
	}
	if key(Config{Exp: floorplan.EXP3}) == key(Config{Exp: floorplan.EXP4}) {
		t.Error("different experiments share a key")
	}
	if key(Config{}) == key(Config{GridRows: 8, GridCols: 8}) {
		t.Error("grid discretization not part of the key")
	}

	spec := &floorplan.StackSpec{Name: "mk", Layers: []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores"}}}
	specKey := key(Config{StackSpec: spec})
	if want := fmt.Sprintf("stack:%s|tick0.1s", spec.Hash()); specKey != want {
		t.Errorf("spec key %q, want %q", specKey, want)
	}
	changed := *spec
	changed.Layers = []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores", FreqScale: 0.7}}
	if key(Config{StackSpec: &changed}) == specKey {
		t.Error("spec content change did not change the key")
	}
	if !strings.HasSuffix(key(Config{StackSpec: spec, GridRows: 4, GridCols: 4}), "|grid4x4") {
		t.Error("grid suffix missing from spec keys")
	}
	for _, e := range floorplan.ExtendedExperiments() {
		if got, want := key(Config{Exp: e, GridRows: 4, GridCols: 4}), key(Config{StackSpec: resolved(e, 0), GridRows: 4, GridCols: 4}); got != want {
			t.Errorf("%v keys %q, its resolved spec %q", e, got, want)
		}
	}
	degraded := key(Config{Exp: floorplan.EXP4, JointResistivityMKW: 0.46})
	if degraded != key(Config{StackSpec: resolved(floorplan.EXP4, 0.46)}) || degraded == key(Config{Exp: floorplan.EXP4}) {
		t.Error("joint-resistivity override does not key like its resolved spec")
	}

	// Configs with no canonical identity must error, not silently alias.
	if _, err := ModelKey(Config{GridRows: 8}); err == nil {
		t.Error("partial grid spec produced a model key")
	}
	if _, err := ModelKey(Config{Exp: floorplan.Experiment(9)}); err == nil {
		t.Error("unknown experiment produced a model key")
	}
}

// TestRunStackSpec runs the engine end to end from a declarative spec
// and checks the spec path and the equivalent builtin path agree
// exactly (the byte-identity contract, observed through the engine).
func TestRunStackSpec(t *testing.T) {
	spec, err := floorplan.SpecForExperiment(floorplan.EXP2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(t, policy.NewDefault())
	cfg.Exp = 0
	cfg.StackSpec = &spec
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := shortCfg(t, policy.NewDefault())
	ref.Exp = floorplan.EXP2
	want, err := Run(ref)
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
// ModelKey: the Exp shorthand and its resolved spec reach the same
// model and factorization, as do a RunBatchContext group's lanes and a
// Fork; and Prewarm after ResetFactorCache rebuilds.
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
	inlineCfg.Exp, inlineCfg.StackSpec = 0, &spec
	inline := engine(inlineCfg)
	if inline.model != short.model {
		t.Fatal("the EXP-1 shorthand and its resolved spec built two models")
	}
	if _, err := thermal.NewTransientBatch([]*thermal.Transient{short.tr, inline.tr}); err != nil {
		t.Fatalf("engines of one model do not share a factorization: %v", err)
	}
	wantStats("shorthand and inline spec", 1, 1, 1)

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
	if err := Prewarm(shortCfg(t, nil)); err != nil {
		t.Fatal(err)
	}
	wantStats("Prewarm after reset", 1, 0, 1)
	if engine(shortCfg(t, policy.NewDefault())).model == short.model {
		t.Fatal("an engine after reset got the dropped model")
	}
	wantStats("engine after Prewarm", 1, 1, 1)
}
