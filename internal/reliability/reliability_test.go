package reliability

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCyclingJEDECCalibration(t *testing.T) {
	m := DefaultCycling()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper cites [13]: failures are 16x more frequent when ΔT grows
	// from 10 to 20 °C.
	ratio := m.CycleDamage(20) / m.CycleDamage(10)
	if math.Abs(ratio-16) > 1e-9 {
		t.Errorf("damage(20)/damage(10) = %g, JEDEC says 16", ratio)
	}
	if m.CycleDamage(20) != 1 {
		t.Errorf("reference cycle damage = %g, want 1", m.CycleDamage(20))
	}
	if m.CycleDamage(0) != 0 || m.CycleDamage(-5) != 0 {
		t.Error("non-positive amplitudes should contribute nothing")
	}
}

func TestCyclingDamageAccumulation(t *testing.T) {
	m := DefaultCycling()
	full := []float64{20, 20}
	half := []float64{20}
	if got := m.Damage(full, half); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("Damage = %g, want 2.5 (2 full + half-weighted residual)", got)
	}
}

func TestCyclingValidate(t *testing.T) {
	if err := (CyclingModel{Exponent: 0, RefDeltaC: 20}).Validate(); err == nil {
		t.Error("zero exponent accepted")
	}
}

func TestEMRateFactor(t *testing.T) {
	m := DefaultEM()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.RateFactor(m.RefC); math.Abs(got-1) > 1e-12 {
		t.Errorf("rate at reference = %g, want 1", got)
	}
	hot := m.RateFactor(m.RefC + 10)
	cold := m.RateFactor(m.RefC - 10)
	if hot <= 1 || cold >= 1 {
		t.Errorf("rate factors not ordered: hot=%g cold=%g", hot, cold)
	}
	// 0.7 eV gives roughly a doubling per ~12 K near 85 °C.
	if hot < 1.5 || hot > 2.5 {
		t.Errorf("rate at +10 K = %g, expected ~1.7-1.9", hot)
	}
}

func TestEMMonotoneProperty(t *testing.T) {
	m := DefaultEM()
	f := func(a, b uint8) bool {
		t1 := 40 + float64(a%80)
		t2 := 40 + float64(b%80)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return m.RateFactor(t1) <= m.RateFactor(t2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEMValidate(t *testing.T) {
	if err := (EMModel{ActivationEV: 0, RefC: 85}).Validate(); err == nil {
		t.Error("zero activation energy accepted")
	}
	if err := (EMModel{ActivationEV: 0.7, RefC: -300}).Validate(); err == nil {
		t.Error("sub-absolute-zero reference accepted")
	}
}
