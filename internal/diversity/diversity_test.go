package diversity

import (
	"math"
	"testing"

	"repro/internal/sparc"
	"repro/internal/workloads"
)

func TestMeasureProfiles(t *testing.T) {
	w, err := workloads.Get("ttsprk")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Measure("ttsprk", w.Program, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Name != "ttsprk" || prof.TotalInsts == 0 {
		t.Fatalf("profile %+v", prof)
	}
	if prof.IUInsts != prof.TotalInsts {
		t.Error("all instructions flow through the IU")
	}
	if prof.MemoryInsts == 0 || prof.MemoryInsts >= prof.TotalInsts {
		t.Errorf("memory insts %d of %d", prof.MemoryInsts, prof.TotalInsts)
	}
	if len(prof.ExecutedOps) != prof.Diversity {
		t.Errorf("executed op list %d vs diversity %d", len(prof.ExecutedOps), prof.Diversity)
	}
	// Unit diversity invariants: fetch/decode/regfile see every type; no
	// unit can see more types than the total.
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		if prof.UnitDiversity[u] > prof.Diversity {
			t.Errorf("unit %v diversity %d exceeds total %d", u, prof.UnitDiversity[u], prof.Diversity)
		}
	}
	if prof.UnitDiversity[sparc.UnitDecode] != prof.Diversity {
		t.Error("decode unit must see every executed type")
	}
}

func TestMeasureErrorsOnNonExit(t *testing.T) {
	w, err := workloads.Get("rspeed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure("rspeed", w.Program, 10); err == nil {
		t.Error("tiny budget must error")
	}
}

func TestAreaWeights(t *testing.T) {
	w := AreaWeights(map[sparc.Unit]int{sparc.UnitALU: 300, sparc.UnitShifter: 100})
	if math.Abs(w[sparc.UnitALU]-0.75) > 1e-12 || math.Abs(w[sparc.UnitShifter]-0.25) > 1e-12 {
		t.Errorf("weights %v", w)
	}
	if len(AreaWeights(nil)) != 0 {
		t.Error("empty input must produce empty weights")
	}
}

// TestCombinePfIsBitStable repeats Equation (1) over weights no float64
// holds exactly: a sum taken in a map's iteration order changes in its last
// bits from call to call, and the golden rendering of the artifacts could
// not hold it.
func TestCombinePfIsBitStable(t *testing.T) {
	weights, pmf := map[sparc.Unit]float64{}, UnitPf{}
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		weights[u] = 1 / float64(3+u)
		pmf[u] = 1 / float64(7+3*u)
	}
	first := CombinePf(weights, pmf)
	for i := 0; i < 200; i++ {
		if got := CombinePf(weights, pmf); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: %v, first call %v", i, got, first)
		}
	}
}

func TestCombinePfEquation1(t *testing.T) {
	weights := map[sparc.Unit]float64{sparc.UnitALU: 0.6, sparc.UnitLSU: 0.4}
	pmf := UnitPf{sparc.UnitALU: 0.5, sparc.UnitLSU: 0.25}
	got := CombinePf(weights, pmf)
	if math.Abs(got-(0.6*0.5+0.4*0.25)) > 1e-12 {
		t.Errorf("Pf = %v", got)
	}
}

func TestPredictPmfClampsAndZeroes(t *testing.T) {
	var ud [sparc.NumUnits]int
	ud[sparc.UnitALU] = 40
	ud[sparc.UnitShifter] = 0
	ud[sparc.UnitMulDiv] = 1
	// Steep positive model forces clamping at 1 for high diversity; a
	// negative intercept clamps low-diversity units at 0.
	pmf := PredictPmf(ud, 0.5, -0.1)
	if pmf[sparc.UnitShifter] != 0 {
		t.Error("unused unit must predict 0")
	}
	if pmf[sparc.UnitALU] != 1 {
		t.Errorf("high diversity should clamp to 1, got %v", pmf[sparc.UnitALU])
	}
	if pmf[sparc.UnitMulDiv] != 0 {
		t.Errorf("ln(1)=0 with negative intercept should clamp to 0, got %v", pmf[sparc.UnitMulDiv])
	}
}

func TestPredictPmfMonotone(t *testing.T) {
	var lo, hi [sparc.NumUnits]int
	for u := range lo {
		lo[u] = 5
		hi[u] = 40
	}
	a, b := 0.08, -0.02
	pl := PredictPmf(lo, a, b)
	ph := PredictPmf(hi, a, b)
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		if ph[u] < pl[u] {
			t.Errorf("unit %v: prediction not monotone", u)
		}
	}
}
