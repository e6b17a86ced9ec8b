package main

import (
	"bytes"
	"context"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobs"
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

// TestJSONSpellingsAgree holds the flag-to-request mapping to the
// byte-identity contracts: two spellings of one campaign print the same
// -json bytes. -engine hybrid -rtl-audit 1.0 is the pure-RTL campaign and
// carries no hybrid block; -shards 3 is the unsharded campaign, hybrid, on
// both targets and transient, whose instants are keyed by (seed, index),
// not by shard. And -json is the bytes cmd/faultserverd's tests hold a
// daemon's results to, jobs.EncodeOutcome of jobs.Execute on the same
// request, for those tests' serve, overlap and crash campaigns spelled as
// flags, -iters 0 included: an explicit 0 is the workload default, as a
// request that omits "iterations" is.
func TestJSONSpellingsAgree(t *testing.T) {
	jsonOf := func(args ...string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := run(append(args, "-json"), &buf); err != nil {
			t.Fatalf("faultcampaign %s: %v", strings.Join(args, " "), err)
		}
		return buf.String()
	}
	sameSharded := func(what string, args ...string) string {
		t.Helper()
		un := jsonOf(args...)
		if sh := jsonOf(slices.Concat(args, []string{"-shards", "3"})...); sh != un {
			t.Errorf("%s: -shards 3 differs from unsharded (%d vs %d bytes)", what, len(sh), len(un))
		}
		return un
	}

	hybrid := []string{"-w", "excerptA", "-models", "sa0,sa1,open", "-nodes", "24", "-seed", "3", "-inject-frac", "0.3"}
	pure := jsonOf(hybrid...)
	full := jsonOf(slices.Concat(hybrid, []string{"-engine", "hybrid", "-rtl-audit", "1.0"})...)
	if full != pure {
		t.Errorf("-engine hybrid -rtl-audit 1.0 differs from pure RTL (%d vs %d bytes)", len(full), len(pure))
	}
	if strings.Contains(full, `"hybrid"`) {
		t.Error("the full-audit campaign carries a hybrid block")
	}
	audited := sameSharded("hybrid", slices.Concat(hybrid, []string{"-engine", "hybrid", "-rtl-audit", "0.5"})...)
	if !strings.Contains(audited, `"hybrid"`) {
		t.Error("the hybrid campaign at -rtl-audit 0.5 carries no hybrid block")
	}

	for _, target := range []string{"iu", "cmem"} {
		sameSharded(target, "-w", "rspeed", "-iters", "2", "-target", target, "-models", "sa1", "-nodes", "60", "-seed", "1", "-inject-frac", "0.3")
	}
	transient := sameSharded("seu,set", "-w", "rspeed", "-iters", "2", "-models", "seu,set", "-pulse", "2", "-nodes", "30", "-seed", "1", "-inject-frac", "0.3")
	if !strings.Contains(transient, `"at_cycle"`) {
		t.Error("the transient campaign carries no sampled injection instants")
	}

	for _, req := range []jobs.Request{
		{Workload: "excerptA", Target: "iu", Models: []string{"sa1"}, Nodes: 6, Seed: 1, InjectAtFraction: 0.3},
		{Workload: "excerptA", Target: "iu", Models: []string{"sa0", "sa1", "open"}, Nodes: 24, Seed: 1, InjectAtFraction: 0.3},
		{Workload: "rspeed", Iterations: crashIters, Target: "iu", Models: []string{"sa0", "sa1"}, Nodes: 120, Seed: 1, InjectAtFraction: 0.3},
	} {
		args := []string{"-w", req.Workload, "-iters", strconv.Itoa(req.Iterations), "-target", req.Target,
			"-models", strings.Join(req.Models, ","), "-nodes", strconv.Itoa(req.Nodes),
			"-seed", strconv.FormatInt(req.Seed, 10), "-inject-frac", "0.3"}
		out, err := jobs.Execute(context.Background(), req, 0, nil)
		var want bytes.Buffer
		if err == nil {
			err = jobs.EncodeOutcome(&want, out)
		}
		if err != nil {
			t.Fatal(err)
		}
		if cli := jsonOf(args...); cli != want.String() {
			t.Errorf("faultcampaign %s -json and jobs.Execute differ (%d vs %d bytes)", strings.Join(args, " "), len(cli), want.Len())
		}
	}
}
