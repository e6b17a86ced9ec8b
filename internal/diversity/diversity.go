// Package diversity implements the paper's contribution: the
// instruction-diversity metric computed from ISS traces, the per-unit
// variant Dm, RTL-derived area weights, and the weighted failure
// probability model of Equation (1):
//
//	Pf = sum_m alpha_m * Pmf
//
// where alpha_m is the fraction of the microcontroller's injectable RTL
// nodes (a proxy for area) in functional unit m.
package diversity

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/sparc"
)

func logf(x float64) float64 { return math.Log(x) }

// Profile characterizes a workload the way Table 1 does.
type Profile struct {
	Name          string
	TotalInsts    uint64
	IUInsts       uint64 // instructions flowing through the integer unit
	MemoryInsts   uint64
	Diversity     int
	UnitDiversity [sparc.NumUnits]int
	ExecutedOps   []sparc.Op
}

// Measure runs the program on the functional ISS and extracts its profile.
// This is the cheap, early-design-stage measurement the paper advocates.
func Measure(name string, p *asm.Program, maxInsts uint64) (Profile, error) {
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	cpu := iss.New(mem.NewBus(m), p.Entry)
	if st := cpu.Run(maxInsts); st != iss.StatusExited {
		return Profile{}, fmt.Errorf("diversity: %s did not exit: %v", name, st)
	}
	prof := Profile{
		Name:          name,
		TotalInsts:    cpu.Icount,
		IUInsts:       cpu.Icount, // every instruction uses the IU pipeline
		MemoryInsts:   cpu.MemoryInstCount(),
		Diversity:     cpu.Diversity(),
		UnitDiversity: cpu.UnitDiversity(),
	}
	for op := sparc.Op(1); op < sparc.NumOps; op++ {
		if cpu.OpCounts[op] > 0 {
			prof.ExecutedOps = append(prof.ExecutedOps, op)
		}
	}
	return prof, nil
}

// AreaWeights computes alpha_m: the fraction of injectable RTL nodes per
// functional unit, normalized over the given units. nodeCounts maps each
// unit to its node count (obtained from the RTL model's enumeration).
func AreaWeights(nodeCounts map[sparc.Unit]int) map[sparc.Unit]float64 {
	total := 0
	for _, n := range nodeCounts {
		total += n
	}
	out := make(map[sparc.Unit]float64, len(nodeCounts))
	if total == 0 {
		return out
	}
	for u, n := range nodeCounts {
		out[u] = float64(n) / float64(total)
	}
	return out
}

// UnitPf is a per-unit failure probability estimate Pmf.
type UnitPf map[sparc.Unit]float64

// CombinePf evaluates Equation (1): the area-weighted sum of per-unit
// failure probabilities. It adds the terms in unit order, so the sum is the
// same to the last bit on every call (a map's iteration order is not).
func CombinePf(weights map[sparc.Unit]float64, pmf UnitPf) float64 {
	s := 0.0
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		s += weights[u] * pmf[u]
	}
	return s
}

// PredictPmf maps per-unit diversity to a per-unit failure probability via
// a fitted log model (a, b): Pmf = a*ln(Dm)+b, clamped to [0, 1]. Units
// with zero diversity predict zero.
func PredictPmf(unitDiv [sparc.NumUnits]int, a, b float64) UnitPf {
	out := UnitPf{}
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		d := unitDiv[u]
		if d <= 0 {
			out[u] = 0
			continue
		}
		p := a*logf(float64(d)) + b
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		out[u] = p
	}
	return out
}
