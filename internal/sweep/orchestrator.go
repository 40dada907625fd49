package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// RunFunc executes one job. Implementations must be safe for
// concurrent calls; the exp package supplies the simulator-backed one.
type RunFunc func(ctx context.Context, j Job) (Record, error)

// RunGroupFunc executes a batch of jobs that share a grouping key as
// one unit of work, returning one record per job in the same order.
// Implementations must be safe for concurrent calls and must produce
// records identical to running each job through the RunFunc alone —
// batching is a throughput optimization, never a semantic change.
type RunGroupFunc func(ctx context.Context, jobs []Job) ([]Record, error)

// maxGroup caps how many jobs a grouped dispatch fuses into one batched
// run. The cap keeps enough independent chunks in flight to fill the
// worker pool while still amortizing the shared per-tick work across a
// full panel.
const maxGroup = 16

// Options tunes Execute.
type Options struct {
	// Workers bounds the pool (0: NumCPU, clamped to the number of
	// dispatch units — jobs, or chunks when grouping is active).
	Workers int
	// Skip holds job keys to treat as already complete (typically
	// CompletedKeys of a loaded checkpoint). Skipped jobs are not run
	// and not re-emitted; merge the checkpoint's records with the new
	// ones before aggregating.
	Skip map[string]bool
	// Group maps a job to a batching key. Jobs sharing a non-empty key
	// are dispatched together (in chunks of at most 16) through
	// RunGroup; an empty key — or a nil Group or RunGroup — leaves the
	// job on the per-job RunFunc path. Grouping changes only which
	// worker a job runs on and how runs are fused; job keys, record
	// contents, and the wire format are untouched.
	Group func(Job) string
	// RunGroup executes one chunk of same-key jobs; required whenever
	// Group is set (singleton chunks still use the RunFunc).
	RunGroup RunGroupFunc
}

// chunkJobs partitions the jobs into dispatch units. Jobs with the same
// non-empty group key are gathered — in sweep expansion order — into
// chunks of at most limit, placed at the position of the key's first
// occurrence; ungrouped jobs stay singleton chunks in place. The
// partition is deterministic for a given job list.
func chunkJobs(todo []Job, group func(Job) string, limit int) [][]Job {
	if group == nil {
		chunks := make([][]Job, len(todo))
		for i := range todo {
			chunks[i] = todo[i : i+1]
		}
		return chunks
	}
	byKey := make(map[string][]Job)
	order := make([]string, 0)
	var chunks [][]Job
	for _, j := range todo {
		k := group(j)
		if k == "" {
			chunks = append(chunks, []Job{j})
			continue
		}
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
			// Reserve the first-occurrence position; filled below once
			// the whole key's membership is known.
			chunks = append(chunks, nil)
		}
		byKey[k] = append(byKey[k], j)
	}
	// Replace each key's placeholder with its chunks (first chunk plus
	// any overflow), preserving first-seen key order.
	out := make([][]Job, 0, len(chunks))
	ki := 0
	for _, c := range chunks {
		if c != nil {
			out = append(out, c)
			continue
		}
		js := byKey[order[ki]]
		ki++
		for len(js) > 0 {
			m := min(limit, len(js))
			out = append(out, js[:m])
			js = js[m:]
		}
	}
	return out
}

// Execute runs the jobs on a bounded worker pool, streaming each
// record to every sink as its run completes (completion order, not job
// order). It stops dispatching on the first run or sink error, or when
// ctx is canceled; in-flight runs finish and their records are still
// delivered, so a canceled sweep's checkpoint holds every completed
// run. All sinks are closed before returning. The int result is the
// number of jobs that ran (skipped jobs excluded).
func Execute(ctx context.Context, jobs []Job, run RunFunc, opts Options, sinks ...Sink) (int, error) {
	if run == nil {
		return 0, fmt.Errorf("sweep: Execute needs a RunFunc")
	}
	todo := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if !opts.Skip[j.Key()] {
			todo = append(todo, j)
		}
	}
	group := opts.Group
	if opts.RunGroup == nil {
		group = nil // grouping requires a batched runner
	}
	chunks := chunkJobs(todo, group, maxGroup)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}
	if workers < 1 {
		workers = 1
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex // serializes sinks, firstErr, executed
		firstErr error
		executed int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	emit := func(rec Record) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil {
			return // sinks already failed; the run is not persisted
		}
		for _, s := range sinks {
			if err := s.Put(rec); err != nil {
				firstErr = fmt.Errorf("sweep: sink: %w", err)
				cancel()
				return
			}
		}
		// Count only fully-delivered records, so the reported total
		// never exceeds what the checkpoint actually holds.
		executed++
	}

	// runUnit runs one dispatch unit: a singleton chunk through the
	// RunFunc, a larger one through RunGroup.
	runUnit := func(ctx context.Context, chunk []Job) ([]Record, error) {
		if len(chunk) > 1 {
			return opts.RunGroup(ctx, chunk)
		}
		rec, err := run(ctx, chunk[0])
		if err != nil {
			return nil, err
		}
		return []Record{rec}, nil
	}

	next := make(chan []Job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range next {
				start := time.Now()
				recs, err := runUnit(ctx, chunk)
				if err != nil {
					if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						// A run interrupted by cancellation is not a
						// failure; the final ctx.Err() reports it.
						continue
					}
					fail(fmt.Errorf("sweep: %s: %w", describe(chunk), err))
					continue
				}
				if len(recs) != len(chunk) {
					fail(fmt.Errorf("sweep: group runner returned %d records for %s", len(recs), describe(chunk)))
					continue
				}
				// Attribute the chunk's wall time evenly; the fused runs
				// are not separable, and canonical streams strip elapsed
				// time anyway.
				perJob := float64(time.Since(start)) / float64(time.Millisecond) / float64(len(chunk))
				for _, rec := range recs {
					rec.ElapsedMS = perJob
					emit(rec)
				}
			}
		}()
	}
dispatch:
	for _, c := range chunks {
		select {
		case next <- c:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	for _, s := range sinks {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sweep: sink close: %w", err)
		}
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return executed, firstErr
}

// describe names a dispatch unit in an error: its job key, or its size
// and first job key.
func describe(chunk []Job) string {
	if len(chunk) == 1 {
		return "job " + chunk[0].Key()
	}
	return fmt.Sprintf("group of %d jobs (%s, ...)", len(chunk), chunk[0].Key())
}
