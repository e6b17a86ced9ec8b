package jobs_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/jobs"
	"repro/internal/workloads"
)

// TestExecuteProgramIsExecute holds the two ways into the campaign driver to
// one result: a bundled workload's program handed to ExecuteProgram encodes
// to the bytes Execute gives for the request that names the workload, on
// both targets, every fault model, a mid-run instant, the from-reset
// reference engine and an adaptive stop.
func TestExecuteProgramIsExecute(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  jobs.Request
	}{
		{"iu", jobs.Request{Workload: "excerptB", Models: []string{"sa1"}, Nodes: 24, Seed: 5}},
		{"cmem", jobs.Request{Workload: "excerptB", Target: "cmem", Models: []string{"sa1"}, Nodes: 32, Seed: 5}},
		{"sa0-sa1-open", jobs.Request{Workload: "excerptA", Models: []string{"sa0", "sa1", "open"}, Nodes: 12, Seed: 2}},
		{"seu", jobs.Request{Workload: "excerptB", Models: []string{"seu"}, Nodes: 48, Seed: 3}},
		{"set", jobs.Request{Workload: "excerptB", Models: []string{"set"}, PulseCycles: 3, Nodes: 48, Seed: 3}},
		{"fraction", jobs.Request{Workload: "excerptB", Models: []string{"sa1"}, Nodes: 16, Seed: 5, InjectAtFraction: 0.3}},
		{"no-checkpoint", jobs.Request{Workload: "excerptB", Models: []string{"sa1"}, Nodes: 16, Seed: 5, InjectAtFraction: 0.5, NoCheckpoint: true}},
		{"epsilon", jobs.Request{Workload: "excerptB", Models: []string{"sa0", "sa1"}, Nodes: 64, Seed: 5, Epsilon: 0.15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workloads.Build(tc.req.Workload, workloads.Config{})
			if err != nil {
				t.Fatal(err)
			}
			workers := 2
			if tc.req.Epsilon > 0 {
				// One worker stops on a prefix of the expansion; more stop on
				// whichever experiments had finished, which timing decides.
				workers = 1
			}
			want, err := jobs.Execute(context.Background(), tc.req, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := jobs.ExecuteProgram(context.Background(), w.Program, tc.req, workers)
			if err != nil {
				t.Fatal(err)
			}
			if want.Failures == 0 {
				t.Error("no experiment failed: the row cannot tell an engine that mis-classifies from one that does not")
			}
			if tc.name == "epsilon" && !want.EarlyStopped {
				t.Error("the adaptive campaign ran to completion: the row checks nothing of the stop")
			}
			var wb, gb bytes.Buffer
			if err := jobs.EncodeOutcome(&wb, want); err != nil {
				t.Fatal(err)
			}
			if err := jobs.EncodeOutcome(&gb, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("ExecuteProgram encodes\n%s\nExecute encodes\n%s", gb.Bytes(), wb.Bytes())
			}
		})
	}
}

// TestExecuteProgramRejects: what configures a bundled workload's build or
// another engine has no meaning for a given program, and Normalize's own
// checks still apply.
func TestExecuteProgramRejects(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  jobs.Request
	}{
		{"iterations", jobs.Request{Workload: "excerptB", Iterations: 2}},
		{"dataset", jobs.Request{Workload: "excerptB", Dataset: 1}},
		{"iss", jobs.Request{Workload: "excerptB", Engine: "iss"}},
		{"hybrid", jobs.Request{Workload: "excerptB", Engine: "hybrid"}},
		{"hybrid audit-all", jobs.Request{Workload: "excerptB", Engine: "hybrid", RTLAudit: 1}},
		{"no label", jobs.Request{}},
		{"model", jobs.Request{Workload: "excerptB", Models: []string{"sa2"}}},
		{"fraction", jobs.Request{Workload: "excerptB", InjectAtFraction: 1}},
	} {
		if _, err := jobs.ExecuteProgram(context.Background(), w.Program, tc.req, 1); err == nil {
			t.Errorf("%s: ExecuteProgram accepted %+v", tc.name, tc.req)
		}
	}
}
