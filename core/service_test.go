package core_test

import (
	"context"
	"testing"
	"time"

	"repro/core"
)

// TestJobServiceRoundTrip drives the embedder-facing async API the same
// way faultserverd drives the HTTP layer: submit, watch progress, wait,
// and check that a duplicate submission never reruns the engine and that
// the cached outcome matches the synchronous execution path bit for bit.
func TestJobServiceRoundTrip(t *testing.T) {
	svc := core.NewJobService(core.JobServiceOptions{Concurrency: 2})
	defer svc.Close()

	req := core.CampaignRequest{
		Workload:         "excerptB",
		Models:           []string{"sa0"},
		Nodes:            4,
		Seed:             3,
		InjectAtFraction: 0.4,
	}
	st, fresh, err := svc.SubmitCampaign(req)
	if err != nil || !fresh {
		t.Fatalf("submit: fresh=%v err=%v", fresh, err)
	}
	ch, unsub, err := svc.WatchProgress(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := svc.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final = %v (%s)", final.State, final.Error)
	}
	var lastDone int
	for p := range ch {
		if p.Done < lastDone {
			t.Errorf("progress went backwards: %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
	}
	if lastDone != final.Result.Injections {
		t.Errorf("last progress %d, want %d", lastDone, final.Result.Injections)
	}

	st2, fresh, err := svc.SubmitCampaign(req)
	if err != nil || fresh || st2.ID != st.ID || st2.Result == nil {
		t.Fatalf("resubmit: fresh=%v id=%s err=%v", fresh, st2.ID, err)
	}

	sync, err := core.ExecuteCampaign(context.Background(), req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Pf != final.Result.Pf || sync.Injections != final.Result.Injections ||
		sync.PfLow != final.Result.PfLow || sync.PfHigh != final.Result.PfHigh {
		t.Fatalf("async outcome %+v diverges from synchronous %+v", final.Result, sync)
	}
	for i := range sync.Experiments {
		if sync.Experiments[i] != final.Result.Experiments[i] {
			t.Fatalf("experiment %d diverged: %+v vs %+v",
				i, final.Result.Experiments[i], sync.Experiments[i])
		}
	}

	if status, err := svc.JobStatus(st.ID); err != nil || status.State != "done" {
		t.Fatalf("JobStatus: %v %v", status.State, err)
	}
	if jobsList := svc.Jobs(); len(jobsList) != 1 {
		t.Fatalf("Jobs() has %d entries, want 1", len(jobsList))
	}
}

// TestExecuteShardedCampaignFacade pins the public sharded surface: the
// in-process sharded execution matches the synchronous path bit for bit,
// and the shard planner covers [0,n) contiguously.
func TestExecuteShardedCampaignFacade(t *testing.T) {
	req := core.CampaignRequest{
		Workload:         "excerptB",
		Models:           []string{"sa0"},
		Nodes:            8,
		Seed:             3,
		InjectAtFraction: 0.4,
	}
	want, err := core.ExecuteCampaign(context.Background(), req, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ExecuteShardedCampaign(context.Background(), req, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Experiments) != len(got.Experiments) {
		t.Fatalf("sharded %d experiments, unsharded %d", len(got.Experiments), len(want.Experiments))
	}
	for i := range want.Experiments {
		if want.Experiments[i] != got.Experiments[i] {
			t.Fatalf("experiment %d diverged: %+v vs %+v", i, got.Experiments[i], want.Experiments[i])
		}
	}
	plan := core.PlanCampaignShards(10, 3)
	if len(plan) != 3 || plan[0].Start != 0 || plan[2].End != 10 {
		t.Fatalf("PlanCampaignShards(10,3) = %+v", plan)
	}
}

// TestRunCampaignReportsWilson checks the synchronous API on a program of
// the caller's own carries the confidence interval alongside Pf.
func TestRunCampaignReportsWilson(t *testing.T) {
	w, err := core.BuildWorkload("excerptA", core.WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCampaign(context.Background(), w.Program, core.CampaignRequest{
		Workload: "excerptA", Models: []string{"sa1"},
		Nodes: 6, Seed: 1, InjectAtFraction: 0.3,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PfLow > res.Pf || res.PfHigh < res.Pf {
		t.Fatalf("Pf %v outside [%v, %v]", res.Pf, res.PfLow, res.PfHigh)
	}
	if res.PfLow == res.PfHigh {
		t.Error("degenerate Wilson interval")
	}
}
