package sim

import (
	"fmt"
)

// ModelKey returns the canonical identity of the thermal system a
// config builds: two configs produce equal keys exactly when Run would
// hand them the same shared thermal model and factorizations — same
// stack (any spec field that changes the built system changes the
// spec's content hash) and grid discretization. Every run steps at the
// paper's 100 ms tick, so the transient factorization's C/dt is the
// same for every key. It is the key of thermal.SharedModel itself, and
// sweep grouping (exp.GroupKey) and Prewarm derive from it, so batched
// jobs can never be grouped across — or warm — a model the run would
// not use.
//
// The key has one form for every stack, "stack:<hash>" plus
// "|grid<r>x<c>" in grid mode. It reads only StackSpec, GridRows and
// GridCols, and errors on configs Run would reject before building the
// model: a missing stack spec, a negative grid dimension, or a partial
// grid spec (exactly one of GridRows/GridCols positive) — the silent
// block-mode fallbacks this helper exists to prevent.
func ModelKey(cfg Config) (string, error) {
	if err := cfg.checkModel(); err != nil {
		return "", err
	}
	key := "stack:" + cfg.StackSpec.Hash()
	if cfg.GridRows > 0 {
		key = fmt.Sprintf("%s|grid%dx%d", key, cfg.GridRows, cfg.GridCols)
	}
	return key, nil
}
