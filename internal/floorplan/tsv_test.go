package floorplan

import (
	"math"
	"testing"
)

func TestTSVJointResistivityMatchesPaper(t *testing.T) {
	// Section IV-C: 1024 vias on the 115 mm² layer give a joint
	// resistivity of ~0.23 m·K/W with <1% area overhead.
	m := NewTSVModel()
	rho := m.JointResistivity(1024)
	if math.Abs(rho-0.23) > 0.005 {
		t.Errorf("joint resistivity with 1024 vias = %.4f, paper says ~0.23", rho)
	}
	if ov := m.AreaOverhead(1024); ov >= 0.01 {
		t.Errorf("area overhead with 1024 vias = %.4f%%, paper keeps it below 1%%", 100*ov)
	}
	// Over 8 TSVs per mm²: 1024/115 ≈ 8.9.
	if perMM2 := 1024.0 / 115.0; perMM2 < 8 {
		t.Errorf("via density %.2f per mm², paper states over 8", perMM2)
	}
}

func TestTSVResistivityMonotone(t *testing.T) {
	m := NewTSVModel()
	prev := m.JointResistivity(0)
	if prev != m.BaseResistivity {
		t.Errorf("zero vias should give base resistivity, got %g", prev)
	}
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		rho := m.JointResistivity(n)
		if rho >= prev {
			t.Errorf("resistivity did not decrease at %d vias: %g >= %g", n, rho, prev)
		}
		if rho < m.ViaResistivity {
			t.Errorf("resistivity %g below pure-copper bound %g", rho, m.ViaResistivity)
		}
		prev = rho
	}
}

func TestTSVDensityEdgeCases(t *testing.T) {
	m := NewTSVModel()
	if m.Density(-5) != 0 || m.AreaOverhead(-5) != 0 {
		t.Error("negative via count should give zero density")
	}
	if rho := m.JointResistivity(-5); rho != m.BaseResistivity {
		t.Errorf("negative via count: rho=%g, want the base %g", rho, m.BaseResistivity)
	}
	full := int(math.Ceil(m.LayerAreaM2 / ViaAreaM2()))
	if m.Density(full) < 1 {
		t.Fatalf("%d vias cover density %g, want >= 1", full, m.Density(full))
	}
	if rho := m.JointResistivity(full); rho != m.ViaResistivity {
		t.Errorf("full density: rho=%g, want the via %g", rho, m.ViaResistivity)
	}
}

func TestFig2Curve(t *testing.T) {
	m := NewTSVModel()
	pts := m.Fig2Curve(DefaultFig2ViaCounts())
	if len(pts) != len(DefaultFig2ViaCounts()) {
		t.Fatalf("curve has %d points, want %d", len(pts), len(DefaultFig2ViaCounts()))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].JointResistivity > pts[i-1].JointResistivity {
			t.Errorf("Fig2 curve not monotonically decreasing at %d vias", pts[i].ViaCount)
		}
	}
	// Paper observation: "even when the TSV density reaches 1-2%, the
	// effect on the temperature profile is limited" — resistivity stays
	// the same order of magnitude across the swept range.
	last := pts[len(pts)-1]
	if last.JointResistivity < 0.1 {
		t.Errorf("resistivity at %d vias = %.3f, expected gentle decline per Fig 2", last.ViaCount, last.JointResistivity)
	}
}
