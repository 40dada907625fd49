package sim

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
)

func TestRunReliabilityAssessment(t *testing.T) {
	cfg := shortCfg(t, policy.NewDefault())
	cfg.TrackLifetime = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack := floorplan.MustBuild(floorplan.EXP1)
	lt := r.Lifetime
	if lt == nil || len(lt.Blocks) != stack.NumBlocks() {
		t.Fatalf("lifetime report missing or not one entry per block (%d blocks)", stack.NumBlocks())
	}
	for c, b := range stack.Cores() {
		w := lt.Blocks[stack.BlockIndex(b)]
		if w.EMFactor <= 0 {
			t.Errorf("core %d has zero EM acceleration", c)
		}
		if w.CycleDamage < 0 {
			t.Errorf("core %d has negative cycling damage", c)
		}
	}
	for _, w := range lt.Blocks {
		if w.CycleDamage > lt.Worst().CycleDamage {
			t.Errorf("block %s out-damages the reported worst block %s", w.Name, lt.Worst().Name)
		}
	}
}

func TestRunOnlineIndicesConverge(t *testing.T) {
	// The runtime-index variant must rediscover the layer ordering the
	// offline solve produces: after a warm-up on a 4-tier stack, the
	// far-layer cores should carry higher α than near-layer cores.
	stack := floorplan.MustBuild(floorplan.EXP3)
	cfg := policy.DefaultAdapt3DConfig()
	cfg.Seed = 5
	cfg.OnlineWindow = 200 // 20 s at the 100 ms tick
	pol, err := policy.NewAdapt3D(stack, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testConfig(t, floorplan.EXP3, pol, "Web-med", 60, 1)); err != nil {
		t.Fatal(err)
	}
	alpha := pol.Alpha()
	nearSum, farSum := 0.0, 0.0
	for i := 0; i < 8; i++ {
		nearSum += alpha[i]
		farSum += alpha[8+i]
	}
	if farSum <= nearSum {
		t.Errorf("online indices did not find the layer ordering: near %g, far %g", nearSum, farSum)
	}
}

func TestReliabilityComparesPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run is slow")
	}
	// The DPM configuration must show more cycling stress than the same
	// policy without DPM (the paper's Section V-D rationale for only
	// reporting cycles with DPM).
	cfg := testConfig(t, floorplan.EXP3, policy.NewDefault(), "Web-med", 120, 1)
	cfg.TrackLifetime = true
	rNo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DPM = policy.DefaultDPM()
	rDpm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack := floorplan.MustBuild(floorplan.EXP3)
	var cycNo, cycDpm float64
	for _, b := range stack.Cores() {
		i := stack.BlockIndex(b)
		cycNo += rNo.Lifetime.Blocks[i].CycleDamage
		cycDpm += rDpm.Lifetime.Blocks[i].CycleDamage
	}
	if cycDpm <= cycNo {
		t.Errorf("DPM cycling damage %g should exceed no-DPM %g", cycDpm, cycNo)
	}
}
