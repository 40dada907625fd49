package reliability

import "fmt"

// This file holds the snapshot side of the wear accumulators, used by
// the simulation engine's checkpoint/fork machinery (sim.Engine
// Snapshot/Restore/Fork). Save reuses the state's buffers and Load the
// accumulator's, so a snapshot cadence is allocation-bounded after the
// first capture — Stream is a plain value (fixed-capacity
// turning-point array), which is what makes a tracker snapshot a slice
// copy rather than a deep walk.

// TrackerState is a value snapshot of a Tracker's wear accumulators.
// The zero value is ready to use as a Save destination.
type TrackerState struct {
	streams []Stream
	emSum   []float64
	maxC    []float64
	samples int
}

// Save captures the tracker's accumulated wear into s.
func (t *Tracker) Save(s *TrackerState) {
	s.streams = append(s.streams[:0], t.streams...)
	s.emSum = append(s.emSum[:0], t.emSum...)
	s.maxC = append(s.maxC[:0], t.maxC...)
	s.samples = t.samples
}

// Load restores the tracker's wear from s. The tracker must track the
// same number of signals the state was saved from; metadata and models
// are left as configured.
func (t *Tracker) Load(s *TrackerState) error {
	if len(s.streams) != len(t.streams) {
		return fmt.Errorf("reliability: tracker state has %d signals, tracker %d", len(s.streams), len(t.streams))
	}
	copy(t.streams, s.streams)
	copy(t.emSum, s.emSum)
	copy(t.maxC, s.maxC)
	t.samples = s.samples
	return nil
}
