package sched

import (
	"fmt"

	"repro/internal/workload"
)

// QueuedJob is a job instance tracked by the machine.
type QueuedJob struct {
	Job        workload.Job
	RemainingS float64 // CPU seconds left at full frequency
	CoreID     int     // current queue
	Migrations int
	// CompletionS is the absolute completion time; negative while the
	// job is still in the system.
	CompletionS float64
}

// Stats summarizes completed work.
type Stats struct {
	Completed      int
	MeanResponseS  float64 // completion - arrival, averaged
	MeanServiceS   float64 // pure work demand, averaged
	MeanSlowdown   float64 // response / service, averaged
	TotalMigration int
}

// Machine is the set of per-core dispatch queues.
type Machine struct {
	numCores       int
	migrationCostS float64
	nowS           float64

	queues [][]*QueuedJob
	done   completion
	// idleSinceS tracks, per core, when the queue last became empty
	// (used by the DPM fixed-timeout policy). A busy core has -1.
	idleSinceS []float64

	totalMigrations int

	// pool recycles QueuedJob objects: a finished job returns to it,
	// and Enqueue and CopyFrom draw from it, so the machine allocates only
	// when more jobs are queued at once than ever before.
	pool []*QueuedJob
}

// completion is the running summary of the finished jobs: their count
// and their response, service and slowdown sums, each added in
// completion order.
type completion struct {
	n                int
	resp, serv, slow float64
}

// CopyFrom copies src's mutable state into the receiver: the clock,
// the idle bookkeeping, the completion sums, and the queued jobs by
// value through the receiver's pool, so a copy costs O(queued jobs)
// however many jobs have finished. Both machines must have one core
// count; the receiver keeps its migration cost. src is only read.
func (m *Machine) CopyFrom(src *Machine) error {
	if src.numCores != m.numCores {
		return fmt.Errorf("sched: copy of a %d-core machine into a %d-core one", src.numCores, m.numCores)
	}
	for _, q := range m.queues {
		m.pool = append(m.pool, q...)
	}
	for c, q := range src.queues {
		dst := m.queues[c][:0]
		for _, j := range q {
			dst = append(dst, m.newJob(*j))
		}
		m.queues[c] = dst
	}
	m.nowS = src.nowS
	m.totalMigrations = src.totalMigrations
	copy(m.idleSinceS, src.idleSinceS)
	m.done = src.done
	return nil
}

// newJob returns a job object holding v, recycled from the pool when
// one is free.
func (m *Machine) newJob(v QueuedJob) *QueuedJob {
	if n := len(m.pool); n > 0 {
		j := m.pool[n-1]
		m.pool = m.pool[:n-1]
		*j = v
		return j
	}
	j := new(QueuedJob)
	*j = v
	return j
}

// NewMachine builds a machine with the given core count and per-migration
// cost in seconds (the paper uses 1 ms).
func NewMachine(numCores int, migrationCostS float64) (*Machine, error) {
	if numCores <= 0 {
		return nil, fmt.Errorf("sched: need at least one core, got %d", numCores)
	}
	if migrationCostS < 0 {
		return nil, fmt.Errorf("sched: migration cost must be >= 0, got %g", migrationCostS)
	}
	m := &Machine{
		numCores:       numCores,
		migrationCostS: migrationCostS,
		queues:         make([][]*QueuedJob, numCores),
		idleSinceS:     make([]float64, numCores),
	}
	for i := range m.idleSinceS {
		m.idleSinceS[i] = 0 // idle since t=0
	}
	return m, nil
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return m.numCores }

// NowS returns the machine's current time.
func (m *Machine) NowS() float64 { return m.nowS }

// Enqueue places a job on the given core's queue.
func (m *Machine) Enqueue(j workload.Job, core int) error {
	if core < 0 || core >= m.numCores {
		return fmt.Errorf("sched: core %d out of range [0,%d)", core, m.numCores)
	}
	m.queues[core] = append(m.queues[core], m.newJob(QueuedJob{
		Job:         j,
		RemainingS:  j.WorkS,
		CoreID:      core,
		CompletionS: -1,
	}))
	m.idleSinceS[core] = -1
	return nil
}

// QueueLen returns the number of jobs queued (including running) on core.
func (m *Machine) QueueLen(core int) int { return len(m.queues[core]) }

// QueueLensInto writes all queue lengths into a caller-owned dst of
// length NumCores. It panics on a length mismatch.
func (m *Machine) QueueLensInto(dst []int) {
	if len(dst) != m.numCores {
		panic(fmt.Sprintf("sched: QueueLensInto got %d entries for %d cores", len(dst), m.numCores))
	}
	for i := 0; i < m.numCores; i++ {
		dst[i] = len(m.queues[i])
	}
}

// Running returns the job at the head of the core's queue, or nil. The
// object stays the machine's: once the job finishes, a later Enqueue or
// CopyFrom reuses it, so callers must not keep it across Advance.
func (m *Machine) Running(core int) *QueuedJob {
	if len(m.queues[core]) == 0 {
		return nil
	}
	return m.queues[core][0]
}

// IdleDurationS returns how long the core's queue has been empty, or 0
// if it is busy.
func (m *Machine) IdleDurationS(core int) float64 {
	if m.idleSinceS[core] < 0 {
		return 0
	}
	return m.nowS - m.idleSinceS[core]
}

// MemActivityInto writes the running job's memory activity on each
// core (0 for idle cores), for the power model, into a caller-owned dst
// of length NumCores. It panics on a length mismatch.
func (m *Machine) MemActivityInto(dst []float64) {
	if len(dst) != m.numCores {
		panic(fmt.Sprintf("sched: MemActivityInto got %d entries for %d cores", len(dst), m.numCores))
	}
	for i := 0; i < m.numCores; i++ {
		dst[i] = 0
		if j := m.Running(i); j != nil {
			dst[i] = j.Job.MemActivity
		}
	}
}

// Migrate moves the running job of core `from` to core `to`. If `to` is
// itself running a job, the two head jobs are swapped (the paper's Migr
// policy swaps jobs between the hot and cool core). Each moved job pays
// the migration cost as additional remaining work. Migrating from an
// empty queue is a no-op.
func (m *Machine) Migrate(from, to int) error {
	if from < 0 || from >= m.numCores || to < 0 || to >= m.numCores {
		return fmt.Errorf("sched: migrate %d->%d out of range", from, to)
	}
	if from == to {
		return nil
	}
	src := m.queues[from]
	if len(src) == 0 {
		return nil
	}
	moved := src[0]
	moved.RemainingS += m.migrationCostS
	moved.Migrations++
	moved.CoreID = to
	m.totalMigrations++

	dst := m.queues[to]
	if len(dst) > 0 {
		// Swap the two running jobs.
		back := dst[0]
		back.RemainingS += m.migrationCostS
		back.Migrations++
		back.CoreID = from
		m.totalMigrations++
		m.queues[from][0] = back
		m.queues[to][0] = moved
		return nil
	}
	m.queues[from] = src[1:]
	m.queues[to] = append(m.queues[to], moved)
	m.idleSinceS[to] = -1
	if len(m.queues[from]) == 0 {
		m.idleSinceS[from] = m.nowS
	}
	return nil
}

// MoveTail moves the most recently queued (not yet running, when
// possible) job from one core to the tail of another queue — the load
// balancer's rebalancing primitive. The moved job pays the migration
// cost. Moving from an empty queue is a no-op.
func (m *Machine) MoveTail(from, to int) error {
	if from < 0 || from >= m.numCores || to < 0 || to >= m.numCores {
		return fmt.Errorf("sched: move tail %d->%d out of range", from, to)
	}
	if from == to {
		return nil
	}
	src := m.queues[from]
	if len(src) == 0 {
		return nil
	}
	moved := src[len(src)-1]
	m.queues[from] = src[:len(src)-1]
	moved.RemainingS += m.migrationCostS
	moved.Migrations++
	moved.CoreID = to
	m.totalMigrations++
	m.queues[to] = append(m.queues[to], moved)
	m.idleSinceS[to] = -1
	if len(m.queues[from]) == 0 {
		m.idleSinceS[from] = m.nowS
	}
	return nil
}

// AdvanceInto executes dt seconds of wall-clock time. speed[c] is core
// c's effective execution speed relative to the default frequency: 0
// for a gated/sleeping core, otherwise the DVFS frequency scale. It
// writes the per-core busy fraction of the interval (the utilization
// the policies observe) into a caller-owned utils slice of length
// NumCores, so the per-tick loop does not allocate.
//
// Cores execute their queue with egalitarian processor sharing: the
// UltraSPARC T1 core is fine-grained multithreaded and switches hardware
// threads every cycle, so k resident threads each progress at speed/k
// and nobody waits behind a long-running thread.
func (m *Machine) AdvanceInto(utils []float64, dt float64, speed []float64) error {
	if dt <= 0 {
		return fmt.Errorf("sched: AdvanceInto dt must be positive, got %g", dt)
	}
	if len(speed) != m.numCores {
		return fmt.Errorf("sched: got %d speeds for %d cores", len(speed), m.numCores)
	}
	if len(utils) != m.numCores {
		return fmt.Errorf("sched: got %d util entries for %d cores", len(utils), m.numCores)
	}
	for c := 0; c < m.numCores; c++ {
		s := speed[c]
		if s < 0 {
			return fmt.Errorf("sched: negative speed %g on core %d", s, c)
		}
		wall := dt
		busy := 0.0
		if s > 0 {
			for wall > 1e-12 && len(m.queues[c]) > 0 {
				k := float64(len(m.queues[c]))
				// Wall time until the job with the least remaining work
				// completes under equal sharing.
				minIdx := 0
				for i, j := range m.queues[c] {
					if j.RemainingS < m.queues[c][minIdx].RemainingS {
						minIdx = i
					}
				}
				minRem := m.queues[c][minIdx].RemainingS
				wallToFinish := minRem * k / s
				if wallToFinish <= wall {
					// Everyone advances by minRem; the shortest job(s)
					// complete.
					for _, j := range m.queues[c] {
						j.RemainingS -= minRem
					}
					busy += wallToFinish
					wall -= wallToFinish
					done := m.nowS + (dt - wall)
					remaining := m.queues[c][:0]
					for _, j := range m.queues[c] {
						if j.RemainingS <= 1e-12 {
							j.RemainingS = 0
							j.CompletionS = done
							m.finish(j)
						} else {
							remaining = append(remaining, j)
						}
					}
					m.queues[c] = remaining
				} else {
					prog := wall * s / k
					for _, j := range m.queues[c] {
						j.RemainingS -= prog
					}
					busy += wall
					wall = 0
				}
			}
		} else if len(m.queues[c]) > 0 {
			// Stalled with pending work: not executing, but not idle
			// either — DPM must not put it to sleep.
			busy = 0
		}
		utils[c] = busy / dt
		if len(m.queues[c]) == 0 && m.idleSinceS[c] < 0 {
			// The queue drained mid-tick: idle starts when execution
			// stopped, not at the tick boundary.
			m.idleSinceS[c] = m.nowS + busy
		}
	}
	m.nowS += dt
	return nil
}

// finish folds a completed job into the completion sums and returns
// its object to the pool.
func (m *Machine) finish(j *QueuedJob) {
	r := j.CompletionS - j.Job.ArrivalS
	m.done.n++
	m.done.resp += r
	m.done.serv += j.Job.WorkS
	m.done.slow += r / j.Job.WorkS
	m.pool = append(m.pool, j)
}

// ComputeStats summarizes the completed jobs.
func (m *Machine) ComputeStats() Stats {
	st := Stats{Completed: m.done.n, TotalMigration: m.totalMigrations}
	if st.Completed == 0 {
		return st
	}
	n := float64(st.Completed)
	st.MeanResponseS = m.done.resp / n
	st.MeanServiceS = m.done.serv / n
	st.MeanSlowdown = m.done.slow / n
	return st
}
