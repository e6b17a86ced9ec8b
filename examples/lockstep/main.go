// Light-lockstep failure detection demo: run a clean RTL core and a
// faulted one side by side and compare their off-core activity — exactly
// the detection mechanism of light-lockstep automotive microcontrollers
// (Infineon AURIX, ST SPC56XL) that defines the paper's failure boundary.
package main

import (
	"fmt"
	"log"

	"repro/core"
	"repro/internal/iss"
)

func main() {
	log.SetFlags(0)

	w, err := core.BuildWorkload("canrdr", core.WorkloadConfig{Iterations: 2})
	if err != nil {
		log.Fatal(err)
	}

	// The "golden" core of the lockstep pair.
	golden := core.NewRTL(w.Program)
	if st := golden.Run(10_000_000); st != iss.StatusExited {
		log.Fatalf("golden run: %v", st)
	}
	fmt.Printf("golden core: %d instructions, %d off-core writes\n",
		golden.Icount, len(golden.Bus.Trace.Writes))

	// The monitored core with a manufacturing defect: stuck-at-1 on bit 7
	// of the ALU result bus.
	faulty := core.NewRTL(w.Program)
	fault := core.Fault{Node: core.Node{Name: "iu.ex.result", Bit: 7}, Model: core.StuckAt1}
	if err := faulty.K.Inject(fault); err != nil {
		log.Fatal(err)
	}
	// Past the golden run's length plus slack a faulted core counts as hung
	// (the campaign engine's hang budget, DESIGN.md §4).
	faulty.Run(3*golden.Cycles() + 10_000)

	// The lockstep comparator: first divergence in off-core activity.
	d := faulty.Bus.Trace.Divergence(&golden.Bus.Trace)
	if d < 0 {
		fmt.Println("fault did not propagate: cores agree at the off-core boundary")
		return
	}
	g := golden.Bus.Trace.Writes
	f := faulty.Bus.Trace.Writes
	fmt.Printf("lockstep mismatch at write #%d (fault: %v)\n", d, fault)
	if d < len(g) {
		fmt.Printf("  golden:  %v\n", g[d])
	}
	if d < len(f) {
		fmt.Printf("  faulty:  %v\n", f[d])
	}
	fmt.Printf("detection latency: write #%d out of %d total — the error was "+
		"caught before %d further bus operations\n", d, len(g), len(g)-d)
}
