// Early-design-stage verification (the paper's benefit B2): rank candidate
// software workloads by expected fault-propagation probability using ONLY
// the instruction set simulator — no RTL description needed — then verify
// the ranking with RTL injection for the extremes.
//
// This is the workflow an automotive supplier can run before the
// microcontroller RTL exists: the ISA definition suffices.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/core"
)

func main() {
	log.SetFlags(0)

	names := []string{"puwmod", "canrdr", "ttsprk", "rspeed", "membench", "intbench"}
	type ranked struct {
		name      string
		diversity int
		predicted float64
	}
	weights := core.AreaWeights(core.TargetIU)

	var rows []ranked
	for _, n := range names {
		w, err := core.BuildWorkload(n, core.WorkloadConfig{})
		if err != nil {
			log.Fatal(err)
		}
		prof, err := core.MeasureDiversity(w)
		if err != nil {
			log.Fatal(err)
		}
		// Figure-7-style coefficients; in a qualified flow these come from
		// a one-off calibration campaign on a previous-generation core.
		pred := core.PredictPf(prof, weights, 0.084, -0.019)
		rows = append(rows, ranked{n, prof.Diversity, pred})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].predicted > rows[j].predicted })

	fmt.Println("ISS-only ranking (higher predicted Pf = exercises more area = better fault coverage):")
	for i, r := range rows {
		fmt.Printf("  %d. %-9s diversity=%2d  predicted Pf=%.1f%%\n",
			i+1, r.name, r.diversity, 100*r.predicted)
	}

	// Verify the extremes against the RTL (this is the step the paper's
	// correlation makes optional for every intermediate iteration).
	for _, n := range []string{rows[0].name, rows[len(rows)-1].name} {
		res, err := core.ExecuteCampaign(context.Background(), core.CampaignRequest{
			Workload:   n,
			Iterations: 2,
			Models:     []string{"sa1"},
			Nodes:      128,
			Seed:       1,
		}, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("RTL check %-9s measured Pf=%.1f%%\n", n, 100*res.Pf)
	}
}
