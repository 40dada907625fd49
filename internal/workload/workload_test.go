package workload

import (
	"math"
	"testing"
)

func TestTableIHasEightBenchmarks(t *testing.T) {
	tbl := TableI()
	if len(tbl) != 8 {
		t.Fatalf("Table I has %d rows, want 8", len(tbl))
	}
	for i, b := range tbl {
		if b.ID != i+1 {
			t.Errorf("row %d has ID %d", i, b.ID)
		}
		if b.AvgUtilPct <= 0 || b.AvgUtilPct > 100 {
			t.Errorf("%s: utilization %g%% out of range", b.Name, b.AvgUtilPct)
		}
	}
}

func TestTableIPublishedValues(t *testing.T) {
	// Spot-check the exact published statistics.
	web, err := ByName("Web-high")
	if err != nil {
		t.Fatal(err)
	}
	if web.AvgUtilPct != 92.87 || web.L2IMissPer100K != 67.6 || web.L2DMissPer100K != 288.7 {
		t.Errorf("Web-high row mismatch: %+v", web)
	}
	gzip, _ := ByName("gzip")
	if gzip.AvgUtilPct != 9 || gzip.FPPer100K != 0.2 {
		t.Errorf("gzip row mismatch: %+v", gzip)
	}
	mp, err := ByName("MPlayer")
	if err != nil || mp.ID != 7 {
		t.Errorf("MPlayer = %+v, %v, want Table I ID 7", mp, err)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMemActivityOrdering(t *testing.T) {
	// Web-high has by far the highest miss traffic, gzip the lowest.
	hi, _ := ByName("Web-high")
	lo, _ := ByName("gzip")
	if hi.MemActivity() <= lo.MemActivity() {
		t.Errorf("Web-high activity %g should exceed gzip %g", hi.MemActivity(), lo.MemActivity())
	}
	for _, b := range TableI() {
		if a := b.MemActivity(); a < 0 || a > 1 {
			t.Errorf("%s: MemActivity %g out of [0,1]", b.Name, a)
		}
		if f := b.FPIntensity(); f < 0 || f > 1 {
			t.Errorf("%s: FPIntensity %g out of [0,1]", b.Name, f)
		}
	}
}

func TestGenerateOfferedLoadMatchesTableI(t *testing.T) {
	// The headline property: the synthetic generator reproduces the
	// paper's average utilization for every benchmark (within sampling
	// noise over a half-hour trace).
	for _, b := range TableI() {
		jobs, err := Generate(GenConfig{Bench: b, NumCores: 8, DurationS: 1800, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := ValidateJobs(jobs); err != nil {
			t.Fatalf("%s: invalid trace: %v", b.Name, err)
		}
		got := OfferedLoad(jobs, 8, 1800)
		want := b.AvgUtil()
		// Heavy-tailed thread sizes mean the lightest benchmarks see only
		// ~100 threads in half an hour; allow the resulting sampling noise.
		if math.Abs(got-want)/want > 0.20 {
			t.Errorf("%s: offered load %.4f, Table I says %.4f", b.Name, got, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b, _ := ByName("Web-med")
	cfg := GenConfig{Bench: b, NumCores: 8, DurationS: 100, Seed: 5}
	j1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := Generate(cfg)
	if len(j1) != len(j2) {
		t.Fatalf("same seed produced %d vs %d jobs", len(j1), len(j2))
	}
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatalf("job %d differs between identical runs", i)
		}
	}
	j3, _ := Generate(GenConfig{Bench: b, NumCores: 8, DurationS: 100, Seed: 6})
	if len(j3) == len(j1) {
		same := true
		for i := range j1 {
			if j1[i] != j3[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateBurstinessShapesVariance(t *testing.T) {
	// A bursty benchmark must show higher load variance than a steady
	// source at the SAME mean utilization (Poisson sampling noise depends
	// on the rate, so the comparison must be rate-matched). Use 5 s bins
	// so client-burst modulation dominates the arrival noise.
	bursty, _ := ByName("Web-med") // 53.12%, bursty
	steady := bursty
	steady.Class = BurstSteady
	jb, _ := Generate(GenConfig{Bench: bursty, NumCores: 8, DurationS: 1200, Seed: 3})
	js, _ := Generate(GenConfig{Bench: steady, NumCores: 8, DurationS: 1200, Seed: 3})
	cvb := coeffVar(UtilizationTrace(jb, 8, 1200, 5))
	cvs := coeffVar(UtilizationTrace(js, 8, 1200, 5))
	if cvb <= cvs {
		t.Errorf("bursty CV %.3f should exceed steady CV %.3f at matched load", cvb, cvs)
	}
}

func coeffVar(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean, m2 := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(m2/float64(len(xs))) / mean
}

func TestGenerateValidation(t *testing.T) {
	b, _ := ByName("gzip")
	if _, err := Generate(GenConfig{Bench: b, NumCores: 0, DurationS: 10}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := Generate(GenConfig{Bench: b, NumCores: 8, DurationS: 0}); err == nil {
		t.Error("zero duration accepted")
	}
	bad := b
	bad.AvgUtilPct = 0
	if _, err := Generate(GenConfig{Bench: bad, NumCores: 8, DurationS: 10}); err == nil {
		t.Error("zero utilization accepted")
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{ID: 1, ArrivalS: 0, WorkS: 0.1, MemActivity: 0.5, FPIntensity: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []Job{
		{ID: 1, ArrivalS: -1, WorkS: 0.1},
		{ID: 1, ArrivalS: 0, WorkS: 0},
		{ID: 1, ArrivalS: 0, WorkS: 0.1, MemActivity: 2},
		{ID: 1, ArrivalS: 0, WorkS: 0.1, FPIntensity: -0.5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid job accepted: %+v", i, c)
		}
	}
}

func TestValidateJobsOrdering(t *testing.T) {
	jobs := []Job{
		{ID: 0, ArrivalS: 1, WorkS: 0.1},
		{ID: 1, ArrivalS: 0.5, WorkS: 0.1},
	}
	if err := ValidateJobs(jobs); err == nil {
		t.Error("unsorted trace accepted")
	}
	dup := []Job{
		{ID: 0, ArrivalS: 0, WorkS: 0.1},
		{ID: 0, ArrivalS: 1, WorkS: 0.1},
	}
	if err := ValidateJobs(dup); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestUtilizationTrace(t *testing.T) {
	jobs := []Job{
		{ID: 0, ArrivalS: 0.2, WorkS: 0.8},
		{ID: 1, ArrivalS: 1.5, WorkS: 1.6},
	}
	tr := UtilizationTrace(jobs, 8, 3, 1)
	if len(tr) != 3 {
		t.Fatalf("trace length %d, want 3", len(tr))
	}
	if math.Abs(tr[0]-0.1) > 1e-12 { // 0.8 work over 8 cores x 1 s
		t.Errorf("bin 0 = %g, want 0.1", tr[0])
	}
	if math.Abs(tr[1]-0.2) > 1e-12 {
		t.Errorf("bin 1 = %g, want 0.2", tr[1])
	}
	if UtilizationTrace(jobs, 0, 3, 1) != nil {
		t.Error("invalid args should return nil")
	}
}

func TestBurstinessString(t *testing.T) {
	if BurstBursty.String() != "bursty" || BurstSteady.String() != "steady" ||
		BurstPhased.String() != "phased" || BurstPeriodic.String() != "periodic" {
		t.Error("Burstiness.String unexpected")
	}
}
