package sim

// Observer is the per-tick observation interface: one value receives
// everything the engine exposes about a completed tick. Both methods
// run on the simulation goroutine once per completed tick, in a fixed
// order: ObserveTemps first (with that tick's temperature
// fields), then — after the tick counter advances — ObserveTick with
// the 1-based completed-tick count.
//
// Contract: implementations must be cheap, non-blocking, and
// allocation-free, or they break the tick loop's allocation contract;
// the slices passed to ObserveTemps are engine-owned scratch, valid
// only for the duration of the call — read and fold into your own
// state, do not retain or mutate them.
type Observer interface {
	// ObserveTick is called once after every completed simulated tick
	// with the number of ticks completed so far (1-based).
	ObserveTick(ticksCompleted int)
	// ObserveTemps is called once after every completed tick with the
	// block and core temperature fields of that tick (true
	// temperatures, not sensor readings — the same signals the
	// lifetime tracker consumes).
	ObserveTemps(blockTempsC, coreTempsC []float64)
}

// FuncObserver adapts bare functions to Observer; nil fields are
// skipped. It is the convenient way to observe only one of the two
// signals.
type FuncObserver struct {
	Tick  func(ticksCompleted int)
	Temps func(blockTempsC, coreTempsC []float64)
}

// ObserveTick implements Observer.
func (o FuncObserver) ObserveTick(ticksCompleted int) {
	if o.Tick != nil {
		o.Tick(ticksCompleted)
	}
}

// ObserveTemps implements Observer.
func (o FuncObserver) ObserveTemps(blockTempsC, coreTempsC []float64) {
	if o.Temps != nil {
		o.Temps(blockTempsC, coreTempsC)
	}
}
