package exp

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

// goldenCell pins every numeric field of a matrix cell.
type goldenCell struct {
	policy       string
	hotSpotPct   float64
	gradientPct  float64
	cyclePct     float64
	normPerf     float64
	delayPct     float64
	avgPowerW    float64
	energyJ      float64
	maxTempC     float64
	avgCoreTempC float64
	maxVerticalC float64
	migrations   int
}

// goldenEXP1 captures Run on a tiny deterministic sweep (EXP-1, Web-high,
// DPM, 30 s, seed 7) as produced by the sparse cached solver, whose
// solves thermal's oracles hold to their own backward error and to
// manufactured and exact solutions (see
// thermal.TestSteadyStateSolvesItsSystem). Any solver or simulator
// change that shifts paper-table numbers beyond floating-point noise
// fails here.
var goldenEXP1 = []goldenCell{
	{"Default", 0, 0, 0, 1, 0, 31.81092881299991, 954.3278643900023, 64.2430244620002, 60.31140248878117, 8.243879636835473, 9},
	{"Adapt3D", 0, 0, 0, 0.8459485473539304, 18.210499105168047, 31.10633972222985, 933.1901916669004, 64.15167739492618, 59.96368121833346, 8.219598852091593, 0},
	{"DVFS_FLP", 0, 0, 0, 0.9076743342083273, 10.171673067323091, 28.511348984365313, 855.3404695309638, 62.960189736271744, 58.63560271443376, 7.088760451307579, 8},
}

// goldenRoster extends the same sweep to the whole roster, so every
// policy constructor is pinned, including the seed offsets of the
// stochastic allocators (AdaptRand, Adapt3D, the Adapt3D hybrids).
var goldenRoster = []goldenCell{
	{"Default", 0, 0, 0, 1, 0, 31.81092881299991, 954.3278643900023, 64.2430244620002, 60.31140248878117, 8.243879636835473, 9},
	{"CGate", 0, 0, 0, 1, 0, 31.81092881299991, 954.3278643900023, 64.2430244620002, 60.31140248878117, 8.243879636835473, 9},
	{"DVFS_TT", 0, 0, 0, 1, 0, 31.81092881299991, 954.3278643900023, 64.2430244620002, 60.31140248878117, 8.243879636835473, 9},
	{"DVFS_Util", 0, 0, 0, 0.9954657371517637, 0.4554916034789729, 31.65950019320823, 949.7850057962519, 64.23351252765254, 60.23156126801559, 8.248251260645254, 9},
	{"DVFS_FLP", 0, 0, 0, 0.9076743342083273, 10.171673067323091, 28.511348984365313, 855.3404695309638, 62.960189736271744, 58.63560271443376, 7.088760451307579, 8},
	{"DVFS_Rel", 0, 0, 0, 0.8473425475053363, 18.016025861571915, 31.094609147730512, 932.8382744319202, 64.21454840876709, 59.921376615123144, 7.530682002822033, 5},
	{"MPC_Thermal", 0, 0, 0, 0.9945748891625746, 0.5454703206908069, 30.954333582622624, 928.6300074786835, 64.0981652044405, 59.89770440199909, 8.243879636835473, 0},
	{"MPC_Rel", 0, 0, 0, 0.7310907292077743, 36.78192870584223, 23.95211610254256, 718.5634830762806, 60.17075482083751, 56.34581502598914, 5.196991753725399, 7},
	{"Migr", 0, 0, 0, 0.9945748891625746, 0.5454703206908069, 30.954333582622624, 928.6300074786835, 64.0981652044405, 59.89770440199909, 8.243879636835473, 0},
	{"AdaptRand", 0, 0, 0, 0.9970632536771736, 0.29453962042986487, 31.505062896568447, 945.1518868970584, 64.21784326590337, 60.15673640581698, 8.223112637012157, 0},
	{"Adapt3D", 0, 0, 0, 0.8459485473539304, 18.210499105168047, 31.10633972222985, 933.1901916669004, 64.15167739492618, 59.96368121833346, 8.219598852091593, 0},
	{"Adapt3D&DVFS_TT", 0, 0, 0, 0.7906588843602279, 26.476792935699866, 31.81972375535814, 954.5917126607492, 64.24353195025395, 60.315992496217596, 7.506722131872387, 8},
	{"Adapt3D&DVFS_Util", 0, 0, 0, 0.7880496112903083, 26.89556414635571, 31.682319143147865, 950.4695742944409, 64.23353577538218, 60.24373555724409, 7.499037606546359, 5},
	{"Adapt3D&DVFS_FLP", 0, 0, 0, 0.8523937111454963, 17.31667971319752, 28.584799732611145, 857.5439919783388, 62.95935080203817, 58.679783928216345, 7.373930031928374, 5},
}

func goldenConfig() MatrixConfig {
	return MatrixConfig{
		Exps:       []floorplan.Experiment{floorplan.EXP1},
		Benchmarks: []string{"Web-high"},
		Policies:   []string{"Default", "Adapt3D", "DVFS_FLP"},
		DurationS:  30,
		Seed:       7,
		UseDPM:     true,
	}
}

func checkGolden(t *testing.T, m *Matrix, golden []goldenCell, relTol float64) {
	t.Helper()
	near := func(field string, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); d > relTol*(1+math.Abs(want)) {
			t.Errorf("%s: got %.15g want %.15g (|Δ|=%.3e)", field, got, want, d)
		}
	}
	if len(m.Cells) != len(golden) {
		t.Fatalf("matrix has %d policies, golden %d", len(m.Cells), len(golden))
	}
	for pi, g := range golden {
		c := m.Cells[pi][0]
		if c.Policy != g.policy {
			t.Fatalf("cell %d policy %q, want %q", pi, c.Policy, g.policy)
		}
		near(g.policy+".HotSpotPct", c.HotSpotPct, g.hotSpotPct)
		near(g.policy+".GradientPct", c.GradientPct, g.gradientPct)
		near(g.policy+".CyclePct", c.CyclePct, g.cyclePct)
		near(g.policy+".NormPerf", c.NormPerf, g.normPerf)
		near(g.policy+".DelayPct", c.DelayPct, g.delayPct)
		near(g.policy+".AvgPowerW", c.AvgPowerW, g.avgPowerW)
		near(g.policy+".EnergyJ", c.EnergyJ, g.energyJ)
		near(g.policy+".MaxTempC", c.MaxTempC, g.maxTempC)
		near(g.policy+".AvgCoreTempC", c.AvgCoreTempC, g.avgCoreTempC)
		near(g.policy+".MaxVerticalC", c.MaxVerticalC, g.maxVerticalC)
		if c.Migrations != g.migrations {
			t.Errorf("%s.Migrations: got %d want %d", g.policy, c.Migrations, g.migrations)
		}
	}
}

// TestRunGoldenEXP1 pins the normalized matrix cells of a tiny
// deterministic sweep so solver refactors provably do not shift the
// regenerated paper tables.
func TestRunGoldenEXP1(t *testing.T) {
	m, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, m, goldenEXP1, 1e-9)
}

// TestRunGoldenRoster runs the golden sweep over every roster policy.
func TestRunGoldenRoster(t *testing.T) {
	cfg := goldenConfig()
	cfg.Policies = append([]string(nil), PolicyOrder...)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, m, goldenRoster, 1e-9)
}

// TestRunGoldenEXP1Dense pins the solver labels as aliases of one
// solver: the golden sweep under the cached, sparse and dense labels,
// batched together, streams records that differ only in the label and
// the key, and the cached cells still match goldenEXP1.
func TestRunGoldenEXP1Dense(t *testing.T) {
	cfg := goldenConfig()
	m, err := cfg.Aggregate(requireSolverLabelsAlias(t, cfg.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, m, goldenEXP1, 1e-9)
}
