package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sweep"
)

// newStreamer builds the client.Streamer behind the -remote flag: one
// base URL gets a single-backend client.Client, a comma-separated list
// gets a cluster.Router that routes every job key to its rendezvous
// owner and re-merges the per-backend streams into canonical order.
// That constructor choice is the whole difference between single-node
// and cluster serving; everything downstream speaks client.Streamer.
// cleanup releases the streamer's resources (the router's health
// probes) and is non-nil even on the single-backend path.
func newStreamer(remote string) (st client.Streamer, cleanup func(), err error) {
	var backends []string
	for _, b := range strings.Split(remote, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	switch len(backends) {
	case 0:
		return nil, nil, fmt.Errorf("-remote %q names no backend", remote)
	case 1:
		return client.New(backends[0]), func() {}, nil
	default:
		r, err := cluster.New(cluster.Config{Backends: backends})
		if err != nil {
			return nil, nil, err
		}
		return r, r.Close, nil
	}
}

// remoteSweep runs the sweep request (spec, shard selection, and
// resume skip-set) on dtmserved instance(s) instead of the local
// machine: it hands the request to the streamer and feeds the returned
// records into the local sinks, so -out, -checkpoint, and -resume behave identically to
// a local run. The streamer delivers records in canonical job order
// with ElapsedMS stripped and verifies the server's completion trailer
// (retrying transient failures with only the not-yet-received jobs),
// so a finished remote stream is byte-identical to a local -canonical
// run of the same spec. Returns the number of records received.
func remoteSweep(ctx context.Context, st client.Streamer, req client.Request, sinks ...sweep.Sink) (n int, err error) {
	// Sinks are closed here, mirroring sweep.Execute, so one sweepMode
	// exit path covers local and remote runs.
	defer func() {
		for _, s := range sinks {
			if cerr := s.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("sweep: sink close: %w", cerr)
			}
		}
	}()

	return st.Stream(ctx, req, func(rec sweep.Record) error {
		for _, s := range sinks {
			if perr := s.Put(rec); perr != nil {
				return fmt.Errorf("sweep: sink: %w", perr)
			}
		}
		return nil
	})
}
