package jobs_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// TestNoBatchInert pins what is left of the no_batch request field: a
// frozen wire name. A request that carries it keeps the content address
// it always had (the hex is the parent commit's), gets the field echoed
// in its outcome, and runs exactly the campaign the request without it
// runs.
func TestNoBatchInert(t *testing.T) {
	req := jobs.Request{Workload: "rspeed", Nodes: 8, Seed: 1}
	with := req
	with.NoBatch = true
	for _, tc := range []struct {
		req  jobs.Request
		want string
	}{
		{req, "d43d1af33560963edbfcf4c6b14243a813f7eaa67beeb6e3ccdfbf2ec88e3c17"},
		{with, "7447672b1d5d9c8b7a2427164adee22e81199ce5c7e701573af9bdf4631a9d27"},
	} {
		if key, err := tc.req.Key(); err != nil || key != tc.want {
			t.Errorf("no_batch=%v: content address %s (%v), want %s", tc.req.NoBatch, key, err, tc.want)
		}
	}
	plain, err := jobs.Execute(context.Background(), req, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := jobs.Execute(context.Background(), with, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Request.NoBatch || plain.Request.NoBatch {
		t.Errorf("request echo: no_batch %v with the field, %v without", out.Request.NoBatch, plain.Request.NoBatch)
	}
	if !reflect.DeepEqual(out.Experiments, plain.Experiments) {
		t.Error("no_batch changed the experiments array")
	}
}

// TestRangeDriver holds the one campaign driver to the contracts its
// former per-surface copies kept, for every engine a request can name:
// shard outputs over a plan of the expansion concatenate to Execute's
// experiments array; a single-engine shard cancelled mid-range reports
// what it finished together with ctx.Err(), a hybrid shard — final only
// when its whole range resolved — reports nothing; and a sharded
// in-process campaign, whose shards run under the campaign's context,
// still records each tracer stage once.
func TestRangeDriver(t *testing.T) {
	hybrid := shardSpec("iu")
	hybrid.Engine = "hybrid"
	iss := shardSpec("iu")
	iss.Engine = "iss"
	for _, tc := range []struct {
		name string
		req  jobs.Request
	}{{"rtl", shardSpec("iu")}, {"iss", iss}, {"hybrid", hybrid}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			whole, err := jobs.Execute(ctx, tc.req, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := whole.Injections
			var merged []jobs.ExperimentOutcome
			for _, sh := range jobs.PlanShards(n, 3) {
				so, err := jobs.ExecuteShard(ctx, tc.req, sh.Start, sh.End, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if so.GoldenCycles != whole.GoldenCycles || so.Checkpointed != whole.Checkpointed {
					t.Errorf("shard %d golden metadata %d/%v, campaign %d/%v", sh.Index,
						so.GoldenCycles, so.Checkpointed, whole.GoldenCycles, whole.Checkpointed)
				}
				for j, i := range so.Indices {
					if i != sh.Start+j {
						t.Fatalf("shard %d reports index %d at position %d", sh.Index, i, j)
					}
				}
				merged = append(merged, so.Experiments...)
			}
			if !reflect.DeepEqual(merged, whole.Experiments) {
				t.Fatal("concatenated shard outputs differ from Execute's experiments")
			}
			if _, err := jobs.ExecuteShard(ctx, tc.req, 0, n+1, 2, nil); err == nil {
				t.Error("a range past the expansion's end was accepted")
			}

			// Cancel from the first completion the engine reports. One
			// worker, so the granule in flight finishes and no other starts.
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			so, err := jobs.ExecuteShard(cctx, tc.req, 0, n, 1, func(done, total, failures int) { cancel() })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled shard returned %v, want context.Canceled", err)
			}
			if tc.req.Engine == "hybrid" {
				escalated := 0
				for _, e := range whole.Experiments {
					if e.Engine == "rtl" && !e.Audited {
						escalated++
					}
				}
				if escalated == 0 {
					t.Fatal("the spec escalates nothing: its shards have no engine run to cancel")
				}
				if so != nil {
					t.Errorf("cancelled hybrid shard reported %d experiments, want none", len(so.Indices))
				}
				return
			}
			if so == nil || len(so.Indices) == 0 || len(so.Indices) >= n {
				t.Fatalf("cancelled shard output %+v, want a strict non-empty part of %d experiments", so, n)
			}
			for j, i := range so.Indices {
				if !reflect.DeepEqual(so.Experiments[j], whole.Experiments[i]) {
					t.Errorf("partial output's experiment %d differs from the campaign's", i)
				}
			}
		})
	}

	tr := obs.NewTracer(nil)
	if _, err := jobs.ExecuteSharded(obs.WithTracer(context.Background(), tr), shardSpec("iu"), 3, 2, nil); err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, sp := range tr.Spans() {
		stages[sp.Stage]++
	}
	if stages["golden"] != 1 || stages["execute"] != 1 {
		t.Errorf("sharded campaign stages %v, want golden and execute once each", stages)
	}
	for stage, count := range stages {
		if count > 1 {
			t.Errorf("stage %q recorded %d times: shards are double-counting into the campaign's trace", stage, count)
		}
	}
}
