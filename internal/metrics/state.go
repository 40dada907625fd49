package metrics

// This file holds the snapshot side of the meters: value states the
// simulation engine captures and restores when checkpointing or forking
// a run (sim.Engine.Snapshot/Restore/Fork). Save methods reuse the
// state's buffers and Load methods reuse the meter's, so a round trip
// is allocation-bounded after the first use. States are meter-shaped:
// loading one into a collector built for a different stack or window is
// an error.

// wedgeState is a value copy of one monotonic deque.
type wedgeState struct {
	val  []float64
	idx  []int
	head int
	size int
}

func (w *wedge) save(s *wedgeState) {
	s.val = append(s.val[:0], w.val...)
	s.idx = append(s.idx[:0], w.idx...)
	s.head = w.head
	s.size = w.size
}

func (w *wedge) load(s *wedgeState) {
	copy(w.val, s.val)
	copy(w.idx, s.idx)
	w.head = s.head
	w.size = s.size
}

// CollectorState is a value snapshot of every meter in a Collector.
// The zero value is ready to use as a Save destination.
type CollectorState struct {
	hotSamples, hotHot int
	hotPerCore         []int
	hotMax             float64

	gradSamples, gradAbove int
	gradSumMax, gradMax    float64

	vertSamples         int
	vertSumMax, vertMax float64

	cycTick, cycSamples, cycAbove int
	cycSumAvg                     float64
	cycMax, cycMin                []wedgeState

	sumCore float64
	nCore   int
}

// Save captures the collector's accumulated metric state into s,
// reusing s's buffers.
func (c *Collector) Save(s *CollectorState) {
	s.hotSamples, s.hotHot, s.hotMax = c.HotSpot.samples, c.HotSpot.hot, c.HotSpot.maxTempC
	s.hotPerCore = append(s.hotPerCore[:0], c.HotSpot.perCoreHot...)

	s.gradSamples, s.gradAbove = c.Gradient.samples, c.Gradient.above
	s.gradSumMax, s.gradMax = c.Gradient.sumMax, c.Gradient.maxSeen

	s.vertSamples = c.Vertical.samples
	s.vertSumMax, s.vertMax = c.Vertical.sumMax, c.Vertical.maxSeen

	s.cycTick, s.cycSamples, s.cycAbove = c.Cycle.tick, c.Cycle.samples, c.Cycle.above
	s.cycSumAvg = c.Cycle.sumAvg
	if len(s.cycMax) != c.Cycle.cores {
		s.cycMax = make([]wedgeState, c.Cycle.cores)
		s.cycMin = make([]wedgeState, c.Cycle.cores)
	}
	for i := range c.Cycle.maxT {
		c.Cycle.maxT[i].save(&s.cycMax[i])
		c.Cycle.minT[i].save(&s.cycMin[i])
	}

	s.sumCore, s.nCore = c.sumCore, c.nCore
}

// Load restores the collector's metric state from s. The collector must
// have the shape (core count, cycle window) the state was saved from.
func (c *Collector) Load(s *CollectorState) error {
	if len(s.hotPerCore) != len(c.HotSpot.perCoreHot) || len(s.cycMax) != c.Cycle.cores {
		return errShape("metrics: collector state shape mismatch")
	}
	if len(s.cycMax) > 0 && len(s.cycMax[0].val) != c.Cycle.WindowTicks {
		return errShape("metrics: collector state cycle window mismatch")
	}
	c.HotSpot.samples, c.HotSpot.hot, c.HotSpot.maxTempC = s.hotSamples, s.hotHot, s.hotMax
	copy(c.HotSpot.perCoreHot, s.hotPerCore)

	c.Gradient.samples, c.Gradient.above = s.gradSamples, s.gradAbove
	c.Gradient.sumMax, c.Gradient.maxSeen = s.gradSumMax, s.gradMax

	c.Vertical.samples = s.vertSamples
	c.Vertical.sumMax, c.Vertical.maxSeen = s.vertSumMax, s.vertMax

	c.Cycle.tick, c.Cycle.samples, c.Cycle.above = s.cycTick, s.cycSamples, s.cycAbove
	c.Cycle.sumAvg = s.cycSumAvg
	for i := range c.Cycle.maxT {
		c.Cycle.maxT[i].load(&s.cycMax[i])
		c.Cycle.minT[i].load(&s.cycMin[i])
	}

	c.sumCore, c.nCore = s.sumCore, s.nCore
	return nil
}

type errShape string

func (e errShape) Error() string { return string(e) }
