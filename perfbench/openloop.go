package main

import (
	"context"
	"sync"
	"time"
)

// openLoop issues call(i, dueAt) for every i at its due time (measured
// from the loop's start), whether or not earlier calls have returned:
// an open loop, whose backlog grows when the system falls behind. Call
// i holds conns(i) of the maxConns connection slots while it runs; when
// too few are free the generator waits, and that wait shows as the
// call's lateness. Callers time each call from dueAt, never from when
// it was sent, so a stall is charged to every request it delays.
//
// openLoop returns once every issued call has returned, with each
// call's lateness (sent minus due). Calls not yet issued when ctx ends
// are skipped and report a negative lateness.
func openLoop(ctx context.Context, due []time.Duration, conns func(i int) int, call func(i int, dueAt time.Time)) []time.Duration {
	lag := make([]time.Duration, len(due))
	for i := range lag {
		lag[i] = -1
	}
	slots := make(chan struct{}, maxConns)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
issue:
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break issue
			}
		}
		need := min(max(conns(i), 1), maxConns)
		for k := 0; k < need; k++ {
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				for ; k > 0; k-- {
					<-slots
				}
				break issue
			}
		}
		lag[i] = time.Since(at)
		wg.Add(1)
		go func(i, need int, at time.Time) {
			defer wg.Done()
			defer func() {
				for k := 0; k < need; k++ {
					<-slots
				}
			}()
			call(i, at)
		}(i, need, at)
	}
	wg.Wait()
	return lag
}
