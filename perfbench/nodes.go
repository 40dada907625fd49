package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/server"
)

// node is one in-process dtmserved instance on a loopback listener.
type node struct {
	url     string
	srv     *server.Server
	handler http.Handler
	hs      *http.Server
	done    chan struct{}
}

// bootNodes starts n servers with one simulation worker each. With
// n > 1 they form a cluster: every node lists all of them as peers, so
// cache misses on keys another node owns are peer-filled.
func bootNodes(n int) ([]*node, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		// Finished sessions stay resident until evicted. Sessions run one
		// at a time, so a cap of one evicts each finished session when
		// the next opens and keeps retained logs and checkpoints from
		// growing with the run.
		cfg := server.Config{Workers: 1, MaxSessions: 1, SessionIdleTimeout: -1}
		if n > 1 {
			cfg.Peers, cfg.Self = urls, urls[i]
		}
		srv := server.New(cfg)
		nd := &node{url: urls[i], srv: srv, handler: srv.Handler(), done: make(chan struct{})}
		nd.hs = &http.Server{Handler: nd.handler}
		go func(ln net.Listener) {
			defer close(nd.done)
			nd.hs.Serve(ln)
		}(lns[i])
		nodes[i] = nd
	}
	return nodes, nil
}

// stop shuts the HTTP server down, stops the worker pool, and waits for
// the serving goroutine to exit.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	n.srv.Stop()
	<-n.done
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

func stopNodes(nodes []*node) error {
	var first error
	for _, n := range nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// scrape reads the node's /metrics document through its handler
// in-process, so scraping holds no connection.
func (n *node) scrape() (server.Metrics, error) {
	rec := httptest.NewRecorder()
	n.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m server.Metrics
	if rec.Code != http.StatusOK {
		return m, fmt.Errorf("metrics: status %d", rec.Code)
	}
	return m, json.Unmarshal(rec.Body.Bytes(), &m)
}

// scrapeAll sums the counters the benchmark reads over every node.
func scrapeAll(nodes []*node) (server.Metrics, error) {
	var sum server.Metrics
	for _, n := range nodes {
		m, err := n.scrape()
		if err != nil {
			return sum, err
		}
		sum.CacheHits += m.CacheHits
		sum.CacheMisses += m.CacheMisses
		sum.InflightJoins += m.InflightJoins
		sum.SimTicks += m.SimTicks
		sum.QueueDepth += m.QueueDepth
		sum.PeerFills += m.PeerFills
		sum.BackendRetries += m.BackendRetries
		sum.ReroutedJobs += m.ReroutedJobs
		sum.JobsFailed += m.JobsFailed
		sum.SessionEnginesLive += m.SessionEnginesLive
	}
	return sum, nil
}

// newHTTPClient returns the generator's HTTP client: at most maxConns
// connections per node, reused across requests.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}}
}
