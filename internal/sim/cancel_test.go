package sim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestRunCanceledContext verifies a run aborts at the first tick when
// its context is already canceled — the mechanism sweep orchestration
// uses to stop in-flight simulations promptly.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Policy: policy.NewDefault(), DurationS: 30})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext with canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunLiveContext verifies an uncanceled context does not perturb a
// run: the result matches a context-free run of the same config.
func TestRunLiveContext(t *testing.T) {
	base := Config{Policy: policy.NewDefault(), DurationS: 10, Seed: 3}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withCtx := base
	withCtx.Policy = policy.NewDefault()
	got, err := RunContext(context.Background(), withCtx)
	if err != nil {
		t.Fatal(err)
	}
	if got.EnergyJ != want.EnergyJ || got.Ticks != want.Ticks || got.Metrics.MaxTempC != want.Metrics.MaxTempC {
		t.Fatal("context-carrying run diverged from plain run")
	}
}

// TestRunCanceledTraceFlushed checks a traced run canceled mid-run:
// RunContext returns the context error, and the trace writer still
// holds the header, the t=0 row and one row per completed tick — the
// lines an uncanceled run of the same config starts with.
func TestRunCanceledTraceFlushed(t *testing.T) {
	var full bytes.Buffer
	if _, err := Run(Config{Policy: policy.NewDefault(), DurationS: 3, Seed: 3, TraceWriter: &full}); err != nil {
		t.Fatal(err)
	}
	const completed = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var part bytes.Buffer
	_, err := RunContext(ctx, Config{
		Policy: policy.NewDefault(), DurationS: 3, Seed: 3, TraceWriter: &part,
		Observer: FuncObserver{Tick: func(n int) {
			if n == completed {
				cancel()
			}
		}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext canceled after tick %d: err = %v, want context.Canceled", completed, err)
	}
	want := strings.Join(strings.SplitAfter(full.String(), "\n")[:2+completed], "")
	if part.String() != want {
		t.Fatalf("canceled run's trace:\n%s\nwant the header, the t=0 row and %d tick rows:\n%s", part.String(), completed, want)
	}
}
