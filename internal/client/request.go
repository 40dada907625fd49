package client

import (
	"fmt"
	"sort"

	"repro/internal/sweep"
)

// Request is the POST /v1/sweep body: the declarative spec plus
// optional sharding and a resume skip-set, mirroring dtmsweep's local
// sweep mode so a workflow can swap `-out jsonl` for `-remote` without
// changing what runs. The server package aliases it as SweepRequest,
// so the client and the handler share one definition of the document.
type Request struct {
	Spec sweep.Spec `json:"spec"`
	// ShardIndex/ShardCount select shard index-of-count of the job
	// list by stable job hash; zero ShardCount means the whole sweep,
	// and a negative one is an error.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// SkipKeys are completed job keys (from a local checkpoint); they
	// are neither run nor re-emitted.
	SkipKeys []string `json:"skip_keys,omitempty"`
}

// Jobs expands the request into its canonical job list: the spec's
// expansion order, filtered by the shard selection and the skip-set.
// This is the order a conforming server streams records in, and the
// order the cluster router re-merges per-backend streams into.
func (r Request) Jobs() ([]sweep.Job, error) {
	if r.ShardCount < 0 {
		return nil, fmt.Errorf("negative shard_count %d", r.ShardCount)
	}
	jobs := r.Spec.Expand()
	if r.ShardCount > 0 {
		var err error
		if jobs, err = sweep.Shard(jobs, r.ShardIndex, r.ShardCount); err != nil {
			return nil, err
		}
	} else if r.ShardIndex != 0 {
		return nil, fmt.Errorf("shard_index %d without shard_count", r.ShardIndex)
	}
	if len(r.SkipKeys) > 0 {
		skip := make(map[string]bool, len(r.SkipKeys))
		for _, k := range r.SkipKeys {
			skip[k] = true
		}
		kept := jobs[:0]
		for _, j := range jobs {
			if !skip[j.Key()] {
				kept = append(kept, j)
			}
		}
		jobs = kept
	}
	return jobs, nil
}

// WithSkip returns a copy of the request whose skip-set is the union
// of the existing one and more, sorted for deterministic request
// bodies. The receiver's SkipKeys slice is never mutated, so one base
// request can fan out into several sub-requests safely.
func (r Request) WithSkip(more map[string]bool) Request {
	if len(more) == 0 {
		return r
	}
	merged := make(map[string]bool, len(r.SkipKeys)+len(more))
	for _, k := range r.SkipKeys {
		merged[k] = true
	}
	for k, v := range more {
		if v {
			merged[k] = true
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.SkipKeys = keys
	return r
}
