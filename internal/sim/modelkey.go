package sim

import (
	"fmt"
)

// ModelKey returns the canonical identity of the thermal system a
// config builds: two configs produce equal keys exactly when Run would
// hand them the same shared thermal model and factorizations — same
// stack (any spec field that changes the built system changes the
// spec's content hash), grid discretization, and tick length (the
// transient factorization bakes in C/dt). It is the key of
// thermal.SharedModel itself, and sweep grouping (exp.GroupKey) and
// Prewarm derive from it, so batched jobs can never be grouped across
// — or warm — a model the run would not use.
//
// The key has one form for every stack, "stack:<hash>|tick<s>s" plus
// "|grid<r>x<c>" in grid mode:
// the Exp shorthand and zero-valued fields resolve exactly as Run
// resolves them, so an experiment and its resolved StackSpec share a
// key. It errors on configs Run would reject before building the model:
// an unknown experiment, a negative joint resistivity or tick, or a
// partial grid spec (exactly one of GridRows/GridCols positive — the
// silent block-mode fallback this helper exists to prevent).
func ModelKey(cfg Config) (string, error) {
	cfg, err := cfg.withModelDefaults()
	if err != nil {
		return "", err
	}
	key := fmt.Sprintf("stack:%s|tick%gs", cfg.StackSpec.Hash(), cfg.TickS)
	if cfg.GridRows > 0 {
		key = fmt.Sprintf("%s|grid%dx%d", key, cfg.GridRows, cfg.GridCols)
	}
	return key, nil
}
