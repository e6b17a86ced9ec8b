package fault

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestRunnerKeepsVerdicts holds the runner's verdict table to its contract
// on both engines: what a campaign resolved is there for every later call on
// the runner, however the calls overlap in nodes or in time, results are
// those of a from-reset reference that keeps no table, and only permanent
// forcings ever enter. Work is read off the engine's exact counters: cycles
// (steps) simulated and universes resolved.
func TestRunnerKeepsVerdicts(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name  string
		build func(p *asm.Program, opts Options) (testEngine, error)
		work  [2]string // cycles or steps simulated, universes resolved
		table func(testEngine) *verdicts
	}{
		{"rtl", func(p *asm.Program, opts Options) (testEngine, error) { return NewRunner(p, opts) },
			[2]string{"engine_faulted_cycles_total", "engine_snapshot_materializations_total"},
			func(e testEngine) *verdicts { return &e.(*Runner).verdicts }},
		{"iss", func(p *asm.Program, opts Options) (testEngine, error) { return NewISSRunner(p, opts, 0, 0) },
			[2]string{"iss_engine_steps_total", `iss_engine_verdicts_total{path="stepped"}`},
			func(e testEngine) *verdicts { return &e.(*ISSRunner).verdicts }},
	} {
		// fresh builds a runner that has resolved nothing; work reads what it
		// has simulated since, entries what its table holds.
		type runner struct {
			testEngine
			reg *obs.Registry
		}
		fresh := func(t *testing.T, noCheckpoint bool) runner {
			t.Helper()
			reg := obs.NewRegistry()
			r, err := eng.build(w.Program, Options{InjectAtFraction: 0.5, PulseCycles: 2, NoCheckpoint: noCheckpoint, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			return runner{r, reg}
		}
		work := func(t *testing.T, r runner) [2]float64 {
			c := engineCounters(t, r.reg)
			return [2]float64{c[eng.work[0]], c[eng.work[1]]}
		}
		entries := func(t *testing.T, r runner) float64 { return engineCounters(t, r.reg)["engine_verdict_table_entries"] }
		campaign := func(t *testing.T, r runner, exps []Experiment, workers int) []Result {
			t.Helper()
			res, _, err := r.CampaignStopContext(context.Background(), exps, workers, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		permanent := func(r runner, lo, hi int) []Experiment {
			return Expand(SampleNodes(Nodes(TargetIU), 96, 3)[lo:hi], rtl.FaultModels()...)
		}

		t.Run(eng.name+"/again", func(t *testing.T) {
			r := fresh(t, false)
			exps := permanent(r, 0, 48)
			first := campaign(t, r, exps, 2)
			cold := work(t, r)
			second := campaign(t, r, exps, 2)
			if warm := work(t, r); cold[0] == 0 || warm != cold {
				t.Errorf("work after one campaign %v, after the same again %v: want the second to simulate nothing", cold, warm)
			}
			want := campaign(t, fresh(t, true), exps, 0)
			if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
				t.Error("a campaign answered from the runner's table differs from the from-reset reference")
			}
		})

		t.Run(eng.name+"/concurrent", func(t *testing.T) {
			r := fresh(t, false)
			halves := [][]Experiment{permanent(r, 0, 64), permanent(r, 32, 96)}
			got := make([][]Result, len(halves))
			var wg sync.WaitGroup
			for i := range halves {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, _, err := r.CampaignStopContext(context.Background(), halves[i], 2, nil, nil)
					if err != nil {
						t.Error(err)
					}
					got[i] = res
				}()
			}
			wg.Wait()
			union := fresh(t, false)
			campaign(t, union, permanent(union, 0, 96), 2)
			if pair, one := work(t, r), work(t, union); pair != one || entries(t, r) != entries(t, union) {
				t.Errorf("two half-overlapping campaigns at once simulated %v into %v verdicts, their union as one campaign %v into %v",
					pair, entries(t, r), one, entries(t, union))
			}
			ref := fresh(t, true)
			for i := range halves {
				if !reflect.DeepEqual(got[i], campaign(t, ref, halves[i], 0)) {
					t.Errorf("concurrent campaign %d differs from the from-reset reference", i)
				}
			}
		})

		t.Run(eng.name+"/cancelled", func(t *testing.T) {
			r := fresh(t, false)
			exps := permanent(r, 0, 96)
			ctx, cancel := context.WithCancel(context.Background())
			var completed atomic.Int32
			_, ran, err := r.CampaignStopContext(ctx, exps, 2, func(int, Result) {
				if completed.Add(1) == int32(len(exps)/3) {
					cancel()
				}
			}, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled campaign returned %v", err)
			}
			done := 0
			for _, ok := range ran {
				if ok {
					done++
				}
			}
			part := work(t, r)
			if done == len(exps) || part[0] == 0 {
				t.Fatalf("%d of %d experiments completed before the cancel, on work %v: nothing kept, or nothing to resume", done, len(exps), part)
			}
			again := campaign(t, r, exps, 2)
			whole := fresh(t, false)
			campaign(t, whole, exps, 2)
			if both, one := work(t, r), work(t, whole); both != one {
				t.Errorf("a campaign cancelled after %v and resubmitted simulated %v in all, run once %v: want the same", part, both, one)
			}
			if !reflect.DeepEqual(again, campaign(t, fresh(t, true), exps, 0)) {
				t.Error("the resubmitted campaign differs from the from-reset reference")
			}
		})

		t.Run(eng.name+"/bounded", func(t *testing.T) {
			r := fresh(t, false)
			nodes := Nodes(TargetIU)
			campaign(t, r, Expand(nodes, rtl.FaultModels()...), 0)
			n := entries(t, r)
			if n == 0 || n > float64(2*len(nodes)) {
				t.Errorf("%v verdicts kept after an exhaustive campaign over %d nodes: want at most two each", n, len(nodes))
			}
			// The rows take two verdicts per bit of the nets the campaign
			// touched — on the RTL engine a net's bits are the nodes the
			// population has on it, on the ISS engine a register's are 32 —
			// and nothing else.
			table := eng.table(r.testEngine)
			bits := map[int32]int{}
			for _, nd := range nodes {
				bits[nd.net]++
			}
			touched := 0
			for row := range table.rows {
				p := table.rows[row].Load()
				if p == nil {
					continue
				}
				width := 32
				if eng.name == "rtl" {
					width = bits[int32(row)]
				}
				for j := range *p {
					if (*p)[j].call.Load() != 0 {
						touched += width
						break
					}
				}
			}
			size := int(unsafe.Sizeof(verdict{}))
			held, slots := table.held()
			if float64(held) != n || slots*size > 2*size*touched {
				t.Errorf("the table holds %d verdicts (the gauge reads %v) in %d bytes: want at most %d, two %d-byte verdicts per bit of the nets touched",
					held, n, slots*size, 2*size*touched, size)
			}
			t.Logf("%v verdicts in %d bytes over %d touched bits", n, slots*size, touched)
			transients := Expand(SampleNodes(nodes, 128, 5), rtl.TransientFaultModels()...)
			r.ScheduleTransients(transients, 5)
			before := work(t, r)
			campaign(t, r, transients, 0)
			if after := entries(t, r); after != n || work(t, r) == before {
				t.Errorf("a seu+set campaign took the table from %v to %v entries and the work from %v to %v: want it stepped and none kept",
					n, after, before, work(t, r))
			}
		})
	}
}

// TestVerdictCallsDoNotWrap runs a runner's call counter across 2³² on both
// engines: the counter is started at 2³²−2 after a first campaign (call 1),
// and three overlapping campaigns then begin calls 2³²−1, 2³² and 2³²+1 —
// which, 32 bits wide, would be 0 (the unresolved mark: its verdicts stepped
// again) and 1 (the first campaign's: its verdicts counted twins). Results,
// work and every verdict counter must equal those of a runner that counted
// from 1, every verdict of the last campaign must be reused, and the counter
// must read past 2³².
func TestVerdictCallsDoNotWrap(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name  string
		build func(opts Options) (testEngine, *verdicts, error)
	}{
		{"rtl", func(opts Options) (testEngine, *verdicts, error) {
			r, err := NewRunner(w.Program, opts)
			if err != nil {
				return nil, nil, err
			}
			return r, &r.verdicts, nil
		}},
		{"iss", func(opts Options) (testEngine, *verdicts, error) {
			r, err := NewISSRunner(w.Program, opts, 0, 0)
			if err != nil {
				return nil, nil, err
			}
			return r, &r.verdicts, nil
		}},
	} {
		t.Run(eng.name, func(t *testing.T) {
			// run builds a runner, runs four campaigns on it — the counter
			// moved to start after the first — and returns their results and
			// the deterministic counters after each.
			run := func(start uint64) (res [][]Result, counters []map[string]float64, table *verdicts) {
				reg := obs.NewRegistry()
				r, table, err := eng.build(Options{InjectAtFraction: 0.5, Obs: reg})
				if err != nil {
					t.Fatal(err)
				}
				nodes := SampleNodes(Nodes(TargetIU), 96, 3)
				for k, span := range [][2]int{{0, 48}, {24, 72}, {48, 96}, {0, 96}} {
					if k == 1 && start != 0 {
						table.calls.Store(start)
					}
					got, _, err := r.CampaignStopContext(context.Background(), Expand(nodes[span[0]:span[1]], rtl.FaultModels()...), 2, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					c := engineCounters(t, reg)
					for name := range c {
						if strings.Contains(name, "seconds") {
							delete(c, name)
						}
					}
					res, counters = append(res, got), append(counters, c)
				}
				return res, counters, table
			}
			wantRes, want, _ := run(0)
			gotRes, got, table := run(math.MaxUint32 - 1)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Error("campaigns across the wrap differ from those of a runner counting from 1")
			}
			for k := range want {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("after campaign %d: counters %v, a runner counting from 1 reads %v", k, got[k], want[k])
				}
			}
			stepped := map[string]string{"rtl": "engine_faulted_cycles_total", "iss": `iss_engine_verdicts_total{path="stepped"}`}[eng.name]
			if got[3][stepped] != got[2][stepped] || got[2][stepped] == 0 {
				t.Errorf("%s: %v after three campaigns, %v after a fourth over their union: want every verdict reused", stepped, got[2][stepped], got[3][stepped])
			}
			if calls := table.calls.Load(); calls != math.MaxUint32+2 {
				t.Errorf("the call counter reads %d after four campaigns from %d, want %d", calls, uint64(math.MaxUint32-1), uint64(math.MaxUint32+2))
			}
		})
	}
}

// TestVerdictTableRace runs eight goroutines over a table's shared rows —
// both polarities of every bit, calls begun between lookups, each call
// shared by a pair of goroutines — and holds the lock-free read path to its
// contract: every forcing's run executes once, every copier reads the three
// values it stepped — never a verdict half published, whose unwritten
// fields read zero — and a copy is a twin exactly when its call is the one
// that stepped the forcing.
func TestVerdictTableRace(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 40
	)
	bits := []uint8{3, 1, 64, 8}
	reg := obs.NewRegistry()
	table := newVerdicts(reg, bits)
	type key struct {
		row, bit int
		one      bool
	}
	var keys []key
	for row, w := range bits {
		for bit := range int(w) {
			keys = append(keys, key{row, bit, false}, key{row, bit, true})
		}
	}
	// stepped is what a forcing's universe comes to: distinct per forcing
	// and nonzero in each of the three values.
	stepped := func(k key) (Outcome, int64, uint64) {
		n := 1 + k.row*256 + k.bit*2
		if k.one {
			n++
		}
		return Outcome(n), int64(3 * n), uint64(7 * n)
	}
	runs := make([]atomic.Int32, len(keys))
	stepCall := make([]atomic.Uint64, len(keys))
	// A call per round per pair of goroutines, begun by whichever of the
	// pair gets there first, between other pairs' lookups.
	var begin [goroutines / 2][rounds]struct {
		once sync.Once
		call uint64
	}
	type lookup struct {
		k         int
		call      uint64
		how       int
		got, want Result
	}
	seen := make([][]lookup, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				b := &begin[g/2][round]
				b.once.Do(func() { b.call = table.begin() })
				for j := range keys {
					k := (j*(2*g+1) + round) % len(keys) // each goroutine its own order
					var res Result
					var want Result
					want.Outcome, want.Latency, want.Cycles = stepped(keys[k])
					how := table.once(int32(keys[k].row), keys[k].bit, keys[k].one, b.call, &res, func() {
						runs[k].Add(1)
						stepCall[k].Store(b.call)
						res.Outcome, res.Latency, res.Cycles = stepped(keys[k])
						for range 50 {
							runtime.Gosched() // hold the verdict while others arrive
						}
					})
					seen[g] = append(seen[g], lookup{k, b.call, how, res, want})
				}
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("forcing %+v ran %d times, want once", keys[k], n)
		}
	}
	var split [3]int
	for g := range seen {
		for _, l := range seen[g] {
			split[l.how]++
			if l.got != l.want {
				t.Fatalf("forcing %+v read %+v, its run stepped %+v", keys[l.k], l.got, l.want)
			}
			want := verdictKnown
			switch {
			case l.how == verdictStepped:
				want = verdictStepped
			case l.call == stepCall[l.k].Load():
				want = verdictTwin
			}
			if l.how != want {
				t.Errorf("forcing %+v on call %d (stepped on call %d) reached as %d, want %d", keys[l.k], l.call, stepCall[l.k].Load(), l.how, want)
			}
		}
	}
	if split[verdictStepped] != len(keys) || split[verdictTwin] == 0 || split[verdictKnown] == 0 {
		t.Errorf("stepped/twin/known %v over %d forcings: want each stepped once, and twins and known copies both", split, len(keys))
	}
	held, slots := table.held()
	if entries := engineCounters(t, reg)["engine_verdict_table_entries"]; held != len(keys) || slots != len(keys) || entries != float64(len(keys)) {
		t.Errorf("table holds %d verdicts in %d slots, gauge %v: want %d each", held, slots, entries, len(keys))
	}
}

// TestKnownVerdictAllocatesNothing holds the lookup of a verdict the runner
// already knows to no allocation on both engines: an activated permanent
// lane on RTL (runLane: its net's log, the table), a forced victim bit on
// the ISS (resolve).
func TestKnownVerdictAllocatesNothing(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{InjectAtFraction: 0.5}
	t.Run("rtl", func(t *testing.T) {
		reg := obs.NewRegistry()
		opts.Obs = reg
		r, err := NewRunner(w.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		exps := Expand(SampleNodes(Nodes(TargetIU), 64, 1), rtl.FaultModels()...)
		want := r.Campaign(exps, 2)
		m := r.planBatches(exps)
		defer r.putMemo(m)
		known := func() float64 { return engineCounters(t, reg)[`engine_verdicts_proven_total{proof="known"}`] }
		checked := 0
		for i := range exps {
			var l lane
			if m.netOf[i] < 0 || !r.batchLane(&l, &exps[i], m.logs[m.netOf[i]]) {
				continue
			}
			before := known()
			var res Result
			if a := testing.AllocsPerRun(20, func() { r.runLane(&exps[i], m, i, &res, nil) }); a != 0 {
				t.Errorf("%v: %v allocations per known lookup", exps[i], a)
			}
			if res != want[i] || known()-before != 21 {
				t.Errorf("%v: read %+v, %v known copies in 21 lookups; the campaign read %+v", exps[i], res, known()-before, want[i])
			}
			if checked++; checked == 8 {
				break
			}
		}
		if checked == 0 {
			t.Fatal("no lane of the sample activates")
		}
	})
	t.Run("iss", func(t *testing.T) {
		reg := obs.NewRegistry()
		opts.Obs = reg
		r, err := NewISSRunner(w.Program, opts, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		exps := Expand(SampleNodes(Nodes(TargetIU), 64, 1), rtl.FaultModels()...)
		want := r.Campaign(exps, 2)
		call := r.verdicts.begin()
		c := engineCounters(t, reg)
		known := func() float64 { return engineCounters(t, reg)[`iss_engine_verdicts_total{path="known"}`] }
		if c[`iss_engine_verdicts_total{path="stepped"}`] == 0 {
			t.Fatal("no forcing of the sample is stepped")
		}
		checked := 0
		for i := range exps {
			before, free := known(), engineCounters(t, reg)[`iss_engine_verdicts_total{path="free"}`]
			var res Result
			if a := testing.AllocsPerRun(20, func() { r.resolve(&exps[i], call, &res, nil) }); a != 0 {
				t.Errorf("%v: %v allocations per known lookup", exps[i], a)
			}
			if res != want[i] {
				t.Errorf("%v: read %+v, the campaign read %+v", exps[i], res, want[i])
			}
			switch k := known() - before; {
			case k == 21:
				checked++
			case k != 0 || engineCounters(t, reg)[`iss_engine_verdicts_total{path="free"}`]-free != 21:
				t.Errorf("%v: %v of 21 lookups known, the rest not free", exps[i], k)
			}
		}
		if checked == 0 {
			t.Fatal("no experiment of the sample reads a known verdict")
		}
	})
}

// BenchmarkVerdictOnce times the lookup of a known verdict: a 256-node IU
// sample's forcings, both polarities, resolved once and then read in turn,
// by one goroutine (known) and by GOMAXPROCS at once (known-parallel).
func BenchmarkVerdictOnce(b *testing.B) {
	type key struct {
		net int32
		bit int
		one bool
	}
	var keys []key
	for _, nd := range SampleNodes(design().nodesOf(TargetIU), 256, 1) {
		keys = append(keys, key{nd.net, nd.Node.Bit, false}, key{nd.net, nd.Node.Bit, true})
	}
	table := newVerdicts(nil, design().bits)
	first := table.begin()
	for _, k := range keys {
		var res Result
		table.once(k.net, k.bit, k.one, first, &res, func() { res.Outcome, res.Latency, res.Cycles = OutcomeMismatch, 1, 2 })
	}
	call := table.begin()
	b.Run("known", func(b *testing.B) {
		var res Result
		for i := 0; b.Loop(); i++ {
			k := &keys[i%len(keys)]
			table.once(k.net, k.bit, k.one, call, &res, func() { b.Fatal("a known verdict stepped") })
		}
	})
	b.Run("known-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var res Result
			for i := 0; pb.Next(); i++ {
				k := &keys[i%len(keys)]
				table.once(k.net, k.bit, k.one, call, &res, func() { b.Error("a known verdict stepped") })
			}
		})
	})
}
