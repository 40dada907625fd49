package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Event types: the four mid-run interventions a session accepts.
const (
	// EventSetPolicy swaps the management policy to another roster
	// member; the new policy starts fresh at the boundary.
	EventSetPolicy = "set_policy"
	// EventSetWorkload regenerates the not-yet-arrived tail of the job
	// trace from another benchmark (and optionally another seed).
	EventSetWorkload = "set_workload"
	// EventFailTSV scales every interlayer bonding resistivity by
	// Factor, modelling TSV/bond degradation mid-run.
	EventFailTSV = "fail_tsv"
	// EventMigrate forces one migration, as if the policy decided it.
	EventMigrate = "migrate"
)

// DefaultTSVFailFactor is the resistivity multiplier a fail_tsv event
// with no explicit factor applies — the doubled-joint-resistivity
// degradation of the repo's stress scenario.
const DefaultTSVFailFactor = 2

// maxTSVFailFactor bounds how far one event may degrade the interface
// physics; beyond this the linear system is numerically meaningless.
const maxTSVFailFactor = 1e3

// Event is one mid-run intervention in its canonical wire form. Only
// the fields of its Type may be set; Normalize rejects foreign fields
// so the encoding round-trips stably (the fuzz target pins this).
type Event struct {
	// Type is one of the Event* constants.
	Type string `json:"type"`

	// Policy names the new policy (set_policy; exp.PolicyOrder roster).
	Policy string `json:"policy,omitempty"`

	// Bench names the new benchmark and Seed optionally overrides the
	// trace seed (set_workload; 0 derives the session job's seed).
	Bench string `json:"bench,omitempty"`
	Seed  int64  `json:"seed,omitempty"`

	// Factor is the resistivity multiplier (fail_tsv; 0 selects
	// DefaultTSVFailFactor).
	Factor float64 `json:"factor,omitempty"`

	// From, To, Tail describe the forced migration (migrate): head swap
	// by default, tail move when Tail is set.
	From int  `json:"from,omitempty"`
	To   int  `json:"to,omitempty"`
	Tail bool `json:"tail,omitempty"`
}

// ParseEvent decodes one event strictly (unknown fields and trailing
// data rejected) and normalizes it.
func ParseEvent(b []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var ev Event
	if err := dec.Decode(&ev); err != nil {
		return Event{}, fmt.Errorf("session: bad event: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Event{}, fmt.Errorf("session: trailing data after event")
	}
	if err := ev.Normalize(); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// Normalize validates the event against the simulator's vocabulary,
// fills type-specific defaults, and rejects fields foreign to the type,
// leaving the event in its one canonical encoding: normalized events
// marshal and re-parse to themselves.
func (ev *Event) Normalize() error {
	switch ev.Type {
	case EventSetPolicy:
		if !exp.KnownPolicy(ev.Policy) {
			return fmt.Errorf("session: unknown policy %q", ev.Policy)
		}
		if ev.Bench != "" || ev.Seed != 0 || ev.Factor != 0 || ev.From != 0 || ev.To != 0 || ev.Tail {
			return fmt.Errorf("session: %s event carries foreign fields", ev.Type)
		}
	case EventSetWorkload:
		if _, err := workload.ByName(ev.Bench); err != nil {
			return fmt.Errorf("session: %w", err)
		}
		if ev.Policy != "" || ev.Factor != 0 || ev.From != 0 || ev.To != 0 || ev.Tail {
			return fmt.Errorf("session: %s event carries foreign fields", ev.Type)
		}
	case EventFailTSV:
		if ev.Factor == 0 {
			ev.Factor = DefaultTSVFailFactor
		}
		if ev.Factor <= 0 || ev.Factor > maxTSVFailFactor {
			return fmt.Errorf("session: fail_tsv factor %g out of range (0, %g]", ev.Factor, float64(maxTSVFailFactor))
		}
		if ev.Policy != "" || ev.Bench != "" || ev.Seed != 0 || ev.From != 0 || ev.To != 0 || ev.Tail {
			return fmt.Errorf("session: %s event carries foreign fields", ev.Type)
		}
	case EventMigrate:
		if ev.From < 0 || ev.To < 0 {
			return fmt.Errorf("session: migrate cores %d->%d out of range", ev.From, ev.To)
		}
		if ev.From == ev.To {
			return fmt.Errorf("session: migrate %d->%d moves nothing", ev.From, ev.To)
		}
		if ev.Policy != "" || ev.Bench != "" || ev.Seed != 0 || ev.Factor != 0 {
			return fmt.Errorf("session: %s event carries foreign fields", ev.Type)
		}
	default:
		return fmt.Errorf("session: unknown event type %q", ev.Type)
	}
	return nil
}

// applyEvent applies one normalized event to a live engine at the given
// tick boundary. It is the single application path — the live session
// and both replay flavors go through it — so an event has exactly one
// meaning. The engine's core-count/range validation happens here, not
// in Normalize: the event vocabulary is stack-independent, the engine
// is not.
func applyEvent(eng *sim.Engine, job sweep.Job, tick int, ev Event) error {
	switch ev.Type {
	case EventSetPolicy:
		pol, err := exp.BuildPolicy(ev.Policy, eng.Stack(), job.Seed)
		if err != nil {
			return err
		}
		return eng.SetPolicy(pol)
	case EventSetWorkload:
		b, err := workload.ByName(ev.Bench)
		if err != nil {
			return err
		}
		seed := ev.Seed
		if seed == 0 {
			// The sweep runner's trace-seed rule, so an event switching
			// to the job's own benchmark replays its trace.
			seed = exp.TraceSeed(job.Seed, b)
		}
		jobs, err := workload.Generate(workload.GenConfig{
			Bench:     b,
			NumCores:  eng.Stack().NumCores(),
			DurationS: job.DurationS,
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		return eng.SpliceJobs(tick, jobs)
	case EventFailTSV:
		return eng.DegradeInterfaces(ev.Factor)
	case EventMigrate:
		return eng.ForceMigration(policy.Migration{From: ev.From, To: ev.To, Tail: ev.Tail})
	default:
		return fmt.Errorf("session: unknown event type %q", ev.Type)
	}
}

// structural reports whether the event replaces one of the engine's
// inputs that a restore does not copy (job trace, stack/thermal model).
// Checkpoint seeking must re-apply structural events preceding the
// checkpoint before restoring it; policy swaps and migrations live
// entirely in copied state and must not be re-applied.
func (ev *Event) structural() bool {
	return ev.Type == EventSetWorkload || ev.Type == EventFailTSV
}
