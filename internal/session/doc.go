// Package session is the stateful interactive-simulation subsystem of
// the serving layer: a client opens a live run of one sweep job, drives
// it through an SSE stream at a chosen frame cadence, and injects
// events mid-run — swap the policy, change the workload, fail a TSV
// bond, force a migration. Every applied event is appended to the
// session's event log with the tick boundary it took effect at.
//
// The subsystem's central invariant is deterministic replay: the served
// stream is a pure function of (job, cadence, event log). Replaying a
// recorded log against a fresh engine — Manager.Replay — reproduces the
// original live stream byte-identically (elapsed stripped, like every
// served record). Checkpoints taken at a configurable cadence, each an
// unstepped Engine.Fork, let Session.ReplayFrom seek into a finished
// run without re-simulating the prefix: a fresh engine re-applies the
// structural events before the checkpoint (workload splices, interface
// degradation) silently, so its job trace and thermal model match the
// ones the checkpoint ran on, and then copies the checkpoint's state
// with Engine.Restore. Restore only reads the checkpoint, so concurrent
// seeks share one.
//
// Concurrency: a Session's engine advances only inside Stream (one
// active stream per session); ApplyEvent and the read accessors
// synchronize with it through the session mutex, so an event POSTed
// mid-run lands on an exact tick boundary. The Manager bounds resident
// sessions (capacity eviction of the oldest idle session, janitor
// eviction on idle timeout, drain on shutdown) and owns the shared
// trace cache, so concurrent sessions of one job replay one generated
// workload.
//
// One run core drives every stream: the live Session.Stream, the full
// replay and the checkpoint seek step, frame and finish through it, so
// their byte-identity is structural. A frame reads the engine's tick
// state (sim.TickState) into reused buffers at the boundary; no
// per-tick observer is attached. The frame is then append-encoded by
// hand into the run core's reused buffer, byte for byte what
// encoding/json produces (FuzzFrameJSON holds the two equal). The tick
// hot path stays allocation-free, frames included: a streaming
// session's steady tick performs no heap allocations
// (pinned by TestSessionTickAllocationContract,
// TestRunMarshalFrameAllocationFree and, for a whole stream at a frame
// per tick, TestSessionStreamAmortizedAllocs).
package session
