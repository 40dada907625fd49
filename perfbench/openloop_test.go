package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests pins the due-time accounting:
// when one call holds every connection slot, the next call is issued
// late, and its latency counts from when it was due, so the stall is
// charged to it as well.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	due := []time.Duration{0, ms(5), ms(10)}
	var mu sync.Mutex
	lat := make([]time.Duration, len(due))
	lag := openLoop(context.Background(), due, func(int) int { return maxConns }, func(i int, at time.Time) {
		time.Sleep(ms(40))
		mu.Lock()
		lat[i] = time.Since(at)
		mu.Unlock()
	})
	if lag[0] > ms(20) {
		t.Errorf("first call issued %v late with every slot free", lag[0])
	}
	if lag[1] < ms(30) || lag[2] < ms(60) {
		t.Errorf("stalled calls issued %v and %v late, want at least 30ms and 60ms", lag[1], lag[2])
	}
	for i := 1; i < len(due); i++ {
		if lat[i] < lag[i]+ms(40) {
			t.Errorf("call %d: latency %v does not include its %v wait", i, lat[i], lag[i])
		}
	}
}

// TestOpenLoopOverlapsWithinSlots checks that single-slot calls run two
// at a time: the second is issued on schedule while the first runs.
func TestOpenLoopOverlapsWithinSlots(t *testing.T) {
	lag := openLoop(context.Background(), []time.Duration{0, ms(1)}, func(int) int { return 1 }, func(int, time.Time) {
		time.Sleep(ms(50))
	})
	if lag[1] > ms(25) {
		t.Fatalf("second call waited %v for a free slot", lag[1])
	}
}

func TestOpenLoopSkipsCallsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	lag := openLoop(ctx, []time.Duration{0, time.Hour}, func(int) int { return 1 }, func(int, time.Time) {
		calls++
		cancel()
	})
	if calls != 1 || lag[0] < 0 || lag[1] >= 0 {
		t.Fatalf("calls=%d lag=%v: want one call and the second skipped", calls, lag)
	}
}
