// Quickstart: build a workload, characterize it on the ISS, run a small
// RTL fault-injection campaign and compare the measured failure
// probability against the diversity-based prediction — the paper's whole
// flow in one page.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/core"
)

func main() {
	log.SetFlags(0)

	// 1. Build one of the bundled EEMBC-workalike benchmarks.
	w, err := core.BuildWorkload("rspeed", core.WorkloadConfig{Iterations: 2})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Characterize it on the functional ISS (cheap, pre-RTL stage).
	prof, err := core.MeasureDiversity(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d instructions, %d memory, diversity=%d\n",
		w.Name, prof.TotalInsts, prof.MemoryInsts, prof.Diversity)

	// 3. Inject permanent faults into the RTL integer unit.
	res, err := core.ExecuteCampaign(context.Background(), core.CampaignRequest{
		Workload:   w.Name,
		Iterations: 2,
		Models:     []string{"sa1"},
		Nodes:      192,
		Seed:       1,
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RTL campaign: %d injections, Pf = %.1f%% propagated to failures\n",
		res.Injections, 100*res.Pf)

	// 4. Predict Pf from the ISS profile alone using the paper's log
	// model (coefficients in the ballpark of Figure 7) and compare.
	weights := core.AreaWeights(core.TargetIU)
	pred := core.PredictPf(prof, weights, 0.084, -0.019)
	fmt.Printf("ISS-only prediction via Eq.(1): %.1f%% (measured %.1f%%)\n",
		100*pred, 100*res.Pf)
}
