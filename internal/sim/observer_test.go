package sim

import (
	"testing"

	"repro/internal/policy"
)

// TestObserverDelivery pins the Observer contract end to end: both
// methods fire once per completed tick, in order (ObserveTemps of a
// tick before its ObserveTick), and ObserveTemps carries non-empty
// engine temperature fields.
func TestObserverDelivery(t *testing.T) {
	cfg := shortCfg(t, policy.NewDefault())
	var tickCalls, tempCalls int
	cfg.Observer = FuncObserver{
		Tick: func(n int) {
			tickCalls++
			if n != tickCalls {
				t.Errorf("ObserveTick reported %d completed ticks, want %d", n, tickCalls)
			}
			if tempCalls != tickCalls {
				t.Errorf("tick %d: ObserveTick after %d ObserveTemps calls, want ObserveTemps first", n, tempCalls)
			}
		},
		Temps: func(blockTempsC, coreTempsC []float64) {
			tempCalls++
			if tempCalls != tickCalls+1 {
				t.Errorf("ObserveTemps call %d after %d ObserveTick calls, want one per tick before the tick's ObserveTick", tempCalls, tickCalls)
			}
			if len(blockTempsC) == 0 || len(coreTempsC) == 0 {
				t.Error("ObserveTemps delivered empty temperature vectors")
			}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tickCalls != res.Ticks || tempCalls != res.Ticks {
		t.Errorf("observer fired tick=%d temps=%d times over %d ticks", tickCalls, tempCalls, res.Ticks)
	}
}
