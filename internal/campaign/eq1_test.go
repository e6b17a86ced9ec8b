package campaign

import (
	"math"
	"testing"
)

// Known-value regression test for the per-class fit: points generated
// exactly on Pmf = 0.1*ln(D) + 0.05 must recover slope, intercept and a
// perfect R². The intercept assertion pins the eq1.go fix — B used to
// be hardcoded to zero.
func TestFitUnitKnownValues(t *testing.T) {
	divs := []float64{math.E, math.E * math.E, math.Exp(3), math.Exp(4)}
	pmfs := make([]float64, len(divs))
	for i, d := range divs {
		pmfs[i] = 0.1*math.Log(d) + 0.05
	}
	f, err := fitUnit(divs, pmfs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-0.1) > 1e-9 {
		t.Errorf("slope = %v, want 0.1", f.A)
	}
	if math.Abs(f.B-0.05) > 1e-9 {
		t.Errorf("intercept = %v, want 0.05 (B must not be dropped)", f.B)
	}
	if math.Abs(f.R2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", f.R2)
	}
}

func TestFitUnitNoisyIntercept(t *testing.T) {
	// y = 0.2*ln(x) + 0.3 with alternating ±0.01 noise: the intercept
	// must land near 0.3, not at zero.
	divs := []float64{2, 4, 8, 16, 32, 64}
	pmfs := make([]float64, len(divs))
	for i, d := range divs {
		noise := 0.01
		if i%2 == 1 {
			noise = -0.01
		}
		pmfs[i] = 0.2*math.Log(d) + 0.3 + noise
	}
	f, err := fitUnit(divs, pmfs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.B-0.3) > 0.05 {
		t.Errorf("intercept = %v, want ~0.3", f.B)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", f.R2)
	}
}
