package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestPlainOutputGolden pins the human-readable rendering of a plain
// campaign, line for line: the command has one execution path and one
// renderer, and this is what they print. Only the elapsed time varies
// between runs.
func TestPlainOutputGolden(t *testing.T) {
	elapsed := regexp.MustCompile(`in \d+\.\ds`)
	const want = `workload:   rspeed, target IU, 24 injections in N.Ns
engine:     golden-run forking (clean run simulated once, experiments fork from it), golden run 9616 cycles
Pf:         37.5% of faults propagated to failures (95% CI 21.2%..57.3%, Wilson)
latency:    max detection latency 2011 cycles
outcomes:   no-effect=15 mismatch=5 error-mode=3 hang=1
per-unit Pf (Pmf of Equation 1)
unit     Pf    
-------  ------
decode   100.0%
regfile  28.6% 
`
	var buf bytes.Buffer
	if err := run([]string{"-w", "rspeed", "-nodes", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := elapsed.ReplaceAllString(buf.String(), "in N.Ns")
	if got != want {
		t.Errorf("plain output drifted:\n got:\n%s\nwant:\n%s", got, want)
	}

	// The reference engine says so, whatever the instant; nothing else on
	// the page moves.
	buf.Reset()
	if err := run([]string{"-w", "rspeed", "-nodes", "8", "-no-checkpoint"}, &buf); err != nil {
		t.Fatal(err)
	}
	ref := elapsed.ReplaceAllString(buf.String(), "in N.Ns")
	wantRef := regexp.MustCompile(`golden-run forking \([^)]*\)`).ReplaceAllString(want, "from-reset re-simulation")
	if ref != wantRef {
		t.Errorf("-no-checkpoint output:\n got:\n%s\nwant:\n%s", ref, wantRef)
	}
}
