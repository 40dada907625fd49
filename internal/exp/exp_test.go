package exp

import (
	"strings"
	"testing"

	"repro/internal/floorplan"
)

// TestBuildPolicySetMatchesPaperRoster builds the whole roster in
// PolicyOrder: the paper's 11 plus DVFS_Rel and the MPC pair, with the
// paper's 11 keeping their published Figure 3 order.
func TestBuildPolicySetMatchesPaperRoster(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	var set []string
	for _, name := range PolicyOrder {
		p, err := BuildPolicy(name, s, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		set = append(set, p.Name())
	}
	if len(set) != 14 {
		t.Fatalf("roster has %d policies, want the paper's 11 + DVFS_Rel + MPC pair", len(set))
	}
	paper := []string{
		"Default", "CGate", "DVFS_TT", "DVFS_Util", "DVFS_FLP", "Migr",
		"AdaptRand", "Adapt3D", "Adapt3D&DVFS_TT", "Adapt3D&DVFS_Util", "Adapt3D&DVFS_FLP",
	}
	next := 0
	for _, name := range set {
		if next < len(paper) && name == paper[next] {
			next++
		}
	}
	if next != len(paper) {
		t.Errorf("roster %v lost the paper's Figure 3 order at %q", set, paper[next])
	}
}

// TestBuildPolicyByName builds every roster policy by name: each name
// unique, each policy reporting the name it was built under, and an
// unknown name refused.
func TestBuildPolicyByName(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	seen := make(map[string]bool)
	for _, name := range PolicyOrder {
		if seen[name] {
			t.Errorf("duplicate policy name %q", name)
		}
		seen[name] = true
		p, err := BuildPolicy(name, s, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("built %q when asking for %q", p.Name(), name)
		}
	}
	if _, err := BuildPolicy("NoSuch", s, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestTableIReportMatchesPublishedRows(t *testing.T) {
	tbl, err := TableIReport(1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Web-high", "92.87", "288.70", "gzip", "MPlayer&Web"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I report missing %q", want)
		}
	}
}

func TestTableIIReport(t *testing.T) {
	var b strings.Builder
	if err := TableIIReport().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"0.15 mm", "10 mm²", "19 mm²", "115 mm²", "140 J/K", "0.1 K/W", "0.02 mm", "0.25 mK/W"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II report missing %q (paper value)", want)
		}
	}
}

func TestFig2Report(t *testing.T) {
	tbl := Fig2Report()
	if tbl.NumRows() == 0 {
		t.Fatal("empty Figure 2 table")
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.2500") {
		t.Error("Figure 2 should include the zero-via base resistivity 0.25")
	}
}

func TestMatrixSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep is slow")
	}
	m, err := Run(MatrixConfig{
		Exps:       []floorplan.Experiment{floorplan.EXP1},
		Benchmarks: []string{"gzip"},
		Policies:   []string{"Default", "Adapt3D"},
		DurationS:  30,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 2 || len(m.Cells[0]) != 1 {
		t.Fatalf("matrix shape %dx%d, want 2x1", len(m.Cells), len(m.Cells[0]))
	}
	def, err := m.Get("Default", floorplan.EXP1)
	if err != nil {
		t.Fatal(err)
	}
	if def.NormPerf != 1.0 {
		t.Errorf("Default normalized performance = %g, must be 1", def.NormPerf)
	}
	if _, err := m.Get("NoSuch", floorplan.EXP1); err == nil {
		t.Error("unknown cell lookup accepted")
	}
	a, _ := m.Get("Adapt3D", floorplan.EXP1)
	if a.AvgPowerW <= 0 {
		t.Error("cell has no power data")
	}
}
