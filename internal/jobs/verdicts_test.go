package jobs_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// sharedReg receives the engine counters of TestLocalShardsShareVerdicts. A
// memoized runner counts into the registry it was first built with, and each
// measurement below forgets the memoized runners first, so its runner is
// built with this one.
var sharedReg = obs.NewRegistry()

// workCounters reads the engine's three exact work counters off the
// registry's text exposition — faulted cycles, materializations, verdicts
// copied from the runner's table — and callers compare deltas.
func workCounters(t *testing.T, reg *obs.Registry) [3]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	var out [3]float64
	for _, line := range strings.Split(sb.String(), "\n") {
		name, val, _ := strings.Cut(line, " ")
		for i, want := range []string{
			"engine_faulted_cycles_total",
			"engine_snapshot_materializations_total",
			`engine_verdicts_proven_total{proof="equivalent"}`,
			// Copied all the same, from a call before: one more shard's.
			`engine_verdicts_proven_total{proof="known"}`,
		} {
			if name == want {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("metric line %q: %v", line, err)
				}
				out[min(i, 2)] += v
			}
		}
	}
	return out
}

// workDelta runs f and returns what it added to the work counters.
func workDelta(t *testing.T, reg *obs.Registry, f func()) (d [3]float64) {
	t.Helper()
	before := workCounters(t, reg)
	f()
	for i, v := range workCounters(t, reg) {
		d[i] = v - before[i]
	}
	return d
}

// coldWorkDelta is workDelta with every memoized runner forgotten first: f
// builds its own, with reg, and finds no verdict resolved.
func coldWorkDelta(t *testing.T, reg *obs.Registry, f func()) [3]float64 {
	t.Helper()
	jobs.ForgetRunners()
	return workDelta(t, reg, f)
}

// TestLocalShardsShareVerdicts holds a campaign cut into local shards to the
// engine work of the uncut one. Expand crosses models outer, nodes inner, so
// the experiment-range shards split every open-line/stuck-at twin pair; the
// shards run on one memoized runner, whose one verdict table is what keeps a
// forcing simulated once all the same. At any shard count the outcome bytes
// equal Execute's — they always did — and so do the faulted cycles, the
// materializations and the verdicts copied (a twin another shard resolved
// counts as known to the runner, one the same shard resolved as equivalent:
// the sum is the unsharded campaign's), exactly. Requests without twins
// (transients, a hybrid campaign's escalations) are the control: nothing to
// share, nothing moves. A transient universe parks on the read logs the
// runner has published (fault.Runner.park), which a shard finds filled or
// not as the other shards' plans go, and takes the ending of a state an
// earlier call's universe parked in from the runner's known futures
// (fault.Runner.known), so its shards are held to the uncut campaign's work
// on a runner whose log and futures the uncut campaign filled: there every
// universe that parks at all takes the first state it parks in, cut or not.
func TestLocalShardsShareVerdicts(t *testing.T) {
	ctx := context.Background()
	reg := sharedReg
	delta := func(f func()) [3]float64 { return workDelta(t, reg, f) }
	cold := func(f func()) [3]float64 { return coldWorkDelta(t, reg, f) }
	sharded := func(t *testing.T, req jobs.Request, shards int) *jobs.Outcome {
		t.Helper()
		pool := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: shards, Obs: reg})
		out, err := pool.Execute(ctx, req, 2, nil)
		pool.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// The repository benchmark's engine_perm request shape.
	perm := jobs.Request{Workload: "rspeed", Iterations: 2, Target: "iu", Models: []string{"sa0", "sa1", "open"},
		Nodes: 256, InjectAtFraction: 0.5}
	transient := perm
	transient.Models, transient.PulseCycles, transient.Nodes = []string{"seu", "set"}, 2, 128
	hybrid := jobs.Request{Workload: "puwmod", Iterations: 2, Target: "iu", Engine: "hybrid", RTLAudit: 0.1, Nodes: 48}

	for _, tc := range []struct {
		name     string
		req      jobs.Request
		seeds    []int64
		twins    bool // the unsharded campaign proves verdicts equivalent
		counters bool // the request's engine work is all in the ranges
		parks    bool // its universes park on the runner's read logs: compared warm
	}{
		{"permanent", perm, []int64{1, 2, 3}, true, true, false},
		{"transient", transient, []int64{1}, false, true, true},
		// A hybrid campaign's plan audits on RTL once per process, whoever
		// asks first; only its bytes are comparable run to run.
		{"hybrid", hybrid, []int64{1}, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range tc.seeds {
				req := tc.req
				req.Seed = seed
				var want *jobs.Outcome
				execute := func() {
					var err error
					if want, err = jobs.ExecuteObs(ctx, req, 2, nil, reg); err != nil {
						t.Fatal(err)
					}
				}
				unsharded, run := cold(execute), cold
				if tc.parks {
					unsharded, run = delta(execute), delta
				}
				if tc.twins && unsharded[2] == 0 {
					t.Fatalf("seed %d: the unsharded campaign proved no verdict equivalent: nothing to hold the shards to", seed)
				}
				wantSum := sha256.Sum256(encode(t, want))
				for _, shards := range []int{1, 2, 4, 7} {
					var got *jobs.Outcome
					work := run(func() { got = sharded(t, req, shards) })
					if sha256.Sum256(encode(t, got)) != wantSum {
						t.Errorf("seed %d, %d shards: outcome differs from Execute", seed, shards)
					}
					if tc.counters && work != unsharded {
						t.Errorf("seed %d, %d shards: faulted cycles, materializations, copied verdicts = %v, unsharded %v",
							seed, shards, work, unsharded)
					}
				}
			}
		})
	}

	// A shard that is requeued and run again finds its verdicts in the
	// runner's table: every activated forcing is a copy, nothing is
	// simulated, and the shard's bytes are what they were.
	t.Run("requeued", func(t *testing.T) {
		req := perm
		req.Seed = 4
		n, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		lease := leaseOf(n, 3*req.Nodes, 0)
		lease.Range = jobs.ShardRange{Index: 1, Start: 192, End: 384}
		run := func() (out *jobs.ShardOutput) {
			out, err := jobs.RunLease(ctx, lease, 1, reg, func(int, int) bool { return false })
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		var first, again *jobs.ShardOutput
		work := cold(func() { first = run() })
		warm := delta(func() { again = run() })
		if work[0] == 0 || warm[0] != 0 || warm[1] != 0 {
			t.Errorf("work of the first run %v, of the re-run %v: want the re-run to simulate nothing", work, warm)
		}
		if a, b := shardBytes(t, first), shardBytes(t, again); !bytes.Equal(a, b) {
			t.Error("a shard re-run against a table holding its verdicts changed its bytes")
		}
		want, err := jobs.ExecuteShard(ctx, req, 192, 384, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shardBytes(t, first), shardBytes(t, want)) {
			t.Error("a shard run as a lease differs from the same range run on its own")
		}
	})
}

// hybridSeed hands every run of TestHybridSharesOneVerdictTable a request
// seed of its own: a hybrid plan is memoized by content address, so a second
// -count round on the same seed would find its audit done.
var hybridSeed atomic.Int64

// TestHybridSharesOneVerdictTable holds a hybrid campaign's RTL work — the
// plan's audit, then the escalations of the range — to that of one RTL
// campaign over the same experiments: the audit sample is a Bernoulli draw
// over the whole expansion, so it splits open-line/stuck-at twins from the
// escalated rest of their class, and only the runner's one table across both
// calls keeps a forcing simulated once. Each side runs on a runner built for
// it.
func TestHybridSharesOneVerdictTable(t *testing.T) {
	ctx := context.Background()
	reg := sharedReg
	req := jobs.Request{Workload: "puwmod", Iterations: 2, Target: "iu", Engine: "hybrid", RTLAudit: 0.3, Nodes: 48,
		Seed: 7700 + hybridSeed.Add(1)}
	var out *jobs.Outcome
	hybrid := coldWorkDelta(t, reg, func() {
		var err error
		if out, err = jobs.ExecuteObs(ctx, req, 2, nil, reg); err != nil {
			t.Fatal(err)
		}
	})
	// The experiments the router sent to the RTL runner.
	rtlRunner := func() *fault.Runner {
		r, err := jobs.RunnerFor(context.Background(), req.Workload, workloads.Config{Iterations: req.Iterations}, fault.Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	exps := fault.Expand(fault.SampleNodes(fault.Nodes(fault.TargetIU), req.Nodes, req.Seed), rtl.FaultModels()...)
	var onRTL []fault.Experiment
	audited := 0
	for i, e := range out.Experiments {
		if e.Engine == "rtl" {
			onRTL = append(onRTL, exps[i])
		}
		if e.Audited {
			audited++
		}
	}
	if audited == 0 || audited == len(onRTL) {
		t.Fatalf("%d of %d RTL experiments audited: the campaign does not split its RTL work", audited, len(onRTL))
	}
	var res []fault.Result
	one := coldWorkDelta(t, reg, func() {
		var err error
		if res, _, err = rtlRunner().CampaignStopContext(ctx, onRTL, 2, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if one[2] == 0 {
		t.Fatal("the single campaign copied no verdict: nothing to hold the hybrid one to")
	}
	if hybrid != one {
		t.Errorf("faulted cycles, materializations, copied verdicts of the hybrid campaign's audit + escalations = %v, of one campaign over the same %d experiments %v",
			hybrid, len(onRTL), one)
	}
	j := 0
	for _, e := range out.Experiments {
		if e.Engine == "rtl" {
			if e.Outcome != res[j].Outcome.String() {
				t.Fatalf("RTL experiment %d: hybrid outcome %s, single campaign %v", j, e.Outcome, res[j].Outcome)
			}
			j++
		}
	}
}

func shardBytes(t *testing.T, out *jobs.ShardOutput) []byte {
	t.Helper()
	return encode(t, &jobs.Outcome{Experiments: out.Experiments})
}

// errorLog is a slog handler that keeps the records at Error level.
type errorLog struct {
	mu   sync.Mutex
	errs []string
}

func (h *errorLog) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelError }
func (h *errorLog) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h *errorLog) WithGroup(string) slog.Handler                { return h }
func (h *errorLog) Handle(_ context.Context, r slog.Record) error {
	msg := r.Message
	r.Attrs(func(a slog.Attr) bool {
		msg += " " + a.String()
		return true
	})
	h.mu.Lock()
	h.errs = append(h.errs, msg)
	h.mu.Unlock()
	return nil
}

// TestCloseJoinsLocalShardWorkers closes a durable, sharded manager in the
// middle of a campaign. Execute returns as soon as the campaign is cancelled,
// while its local workers finish the granule they are on and report it — to a
// journal Close must therefore not have closed yet: nothing may be logged at
// Error, "store: journal closed" least of all.
func TestCloseJoinsLocalShardWorkers(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		logged := &errorLog{}
		m, _, err := jobs.OpenManager(jobs.ManagerOptions{
			Concurrency: 1, CampaignWorkers: 2, Shards: 4,
			DataDir: t.TempDir(), Log: slog.New(logged),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Not the runner TestLocalShardsShareVerdicts counts on: this one is
		// built without a registry.
		st, _, err := m.Submit(jobs.Request{Workload: "rspeed", Iterations: 2, Nodes: 256, Seed: seed, InjectAtFraction: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		// Close once shards are in flight: past the first progress snapshot
		// that counts an experiment, at a different depth every round.
		ch, unsub, err := m.Watch(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for p := range ch {
			if p.Done >= int(seed)*64 || p.State.Terminal() {
				break
			}
		}
		unsub()
		m.Close()
		logged.mu.Lock()
		errs := logged.errs
		logged.mu.Unlock()
		if len(errs) > 0 {
			t.Fatalf("seed %d: closing mid-campaign logged errors:\n%s", seed, strings.Join(errs, "\n"))
		}
	}
}
