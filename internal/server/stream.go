package server

import (
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/sweep"
)

// stream frames the record sequence for one sweep response. Two
// framings exist: JSONL (the default; byte-identical to dtmsweep's
// canonical local output) and SSE (for browsers, selected by Accept:
// text/event-stream).
//
// Delivery follows Nagle's rule (RFC 896): writes stay in net/http's
// buffers, which go out when they fill and when the handler returns,
// until the producer is about to wait, when it calls flush. A stream
// that never waits makes one write syscall per buffer, not per record.
type stream interface {
	// record emits one result.
	record(sweep.Record) error
	// flush sends whatever records are still buffered; the handler
	// calls it before it blocks on a job that is not done yet.
	flush()
	// done terminates a fully-streamed response.
	done(n int)
	// fail terminates a response that cannot be completed. It may be
	// called after records have already streamed — the error travels in
	// the trailer (JSONL) or a terminal event (SSE), never in the
	// record stream itself, which stays pure JSONL records.
	fail(err error)
}

// newStream picks the framing from the request's Accept header.
func newStream(w http.ResponseWriter, r *http.Request) stream {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return newSSE(w)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Declared before the first write: a body that never leaves
	// net/http's buffer before the handler returns would otherwise go
	// out with a Content-Length and no trailers.
	w.Header().Set("Trailer", "X-Sweep-Status, X-Sweep-Error")
	return &jsonlStream{idleFlusher: idleFlusher{w: w}, enc: json.NewEncoder(w)}
}

// sweepStatusTrailer is the JSONL completion trailer: "complete" only
// when every record of the request was streamed. Clients that care
// about truncation (dtmsweep -remote does) must check it; the record
// stream of a failed sweep is a valid prefix and indistinguishable from
// success without it.
const (
	sweepStatusTrailer = http.TrailerPrefix + "X-Sweep-Status"
	sweepErrorTrailer  = http.TrailerPrefix + "X-Sweep-Error"
)

// idleFlusher holds a response's writes until its producer is about to
// wait: flush sends them, and only when some were written since the
// last flush.
type idleFlusher struct {
	w http.ResponseWriter
	// held records whether bytes were written since the last flush.
	held bool
}

func (f *idleFlusher) flush() {
	if !f.held {
		return
	}
	f.held = false
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
}

type jsonlStream struct {
	idleFlusher
	enc *json.Encoder
}

func (s *jsonlStream) record(r sweep.Record) error {
	s.held = true
	return s.enc.Encode(r)
}

func (s *jsonlStream) done(int) {
	s.w.Header().Set(sweepStatusTrailer, "complete")
}

func (s *jsonlStream) fail(err error) {
	s.w.Header().Set(sweepStatusTrailer, "error")
	s.w.Header().Set(sweepErrorTrailer, err.Error())
}

// sseStream writes Server-Sent Events: the sweep's SSE framing and
// every session stream, seek and replay go through it.
type sseStream struct {
	idleFlusher
	// wrote records whether any event was written, so error mapping
	// knows whether an HTTP status can still be sent.
	wrote bool
	// buf holds the last event's framed bytes; event reuses it.
	buf []byte
}

// newSSE sets the event-stream headers and returns the writer.
func newSSE(w http.ResponseWriter) *sseStream {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	return &sseStream{idleFlusher: idleFlusher{w: w}}
}

// event writes one event in a single Write, without flushing: the
// bytes leave when net/http's buffer fills, when the producer calls
// flush before it waits, or when the handler returns. It is a
// session.Emit.
func (s *sseStream) event(name string, data []byte) error {
	s.wrote, s.held = true, true
	s.buf = append(append(append(append(append(s.buf[:0],
		"event: "...), name...), "\ndata: "...), data...), "\n\n"...)
	_, err := s.w.Write(s.buf)
	return err
}

func (s *sseStream) record(r sweep.Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return s.event("record", b)
}

func (s *sseStream) done(n int) {
	b, _ := json.Marshal(map[string]int{"records": n})
	s.event("done", b)
}

func (s *sseStream) fail(err error) {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	s.event("error", b)
}
