package fault

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// allNets returns every IU and CMEM net of r's design, once each.
func allNets(r *Runner) []rtl.WitnessNet {
	seen := map[rtl.WitnessNet]bool{}
	var nets []rtl.WitnessNet
	for _, target := range []Target{TargetIU, TargetCMEM} {
		for _, n := range Nodes(target) {
			if wn := (rtl.WitnessNet{Name: n.Node.Name, Word: n.Node.Word}); !seen[wn] {
				seen[wn] = true
				nets = append(nets, wn)
			}
		}
	}
	return nets
}

// netIDs returns the design's ids of nets.
func netIDs(nets []rtl.WitnessNet) []int32 {
	ids := make([]int32, len(nets))
	for i, n := range nets {
		ids[i] = design().ids[n]
	}
	return ids
}

// logged counts the nets the log holds.
func (lg *readLog) logged() int {
	n := 0
	for i := range lg.nets {
		if lg.nets[i].Load() != nil {
			n++
		}
	}
	return n
}

// allExtras asks for everything a log can hold of each net: its raw values,
// and its clock edges where the witness can watch them (a register of at
// most 62 bits; an array word's write side comes with its reads).
func allExtras(r *Runner, nets []rtl.WitnessNet) []logExtra {
	eng := r.getEngine()
	defer r.putEngine(eng)
	extras := make([]logExtra, len(nets))
	for i, n := range nets {
		extras[i] = logValues
		if eng.core.K.EdgesWatchable(rtl.Node{Name: n.Name}) {
			extras[i] |= logEdges
		}
	}
	return extras
}

// liveWitness arms on core the witness a logging walk with extras arms.
func liveWitness(t *testing.T, core *leon3.Core, nets []rtl.WitnessNet, extras []logExtra) *rtl.Witness {
	t.Helper()
	w, err := core.K.StartWitness(nets)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range extras {
		if x&logEdges != 0 {
			if err := w.WatchEdges(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

// logPrograms is what the log tests run on: two generated programs and the
// two workalikes the benchmark's campaigns use.
func logPrograms(t *testing.T) map[string]*asm.Program {
	t.Helper()
	progs := map[string]*asm.Program{}
	for _, seed := range []int64{3, 8} {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		progs[fmt.Sprintf("generated-%d", seed)] = p
	}
	for _, name := range []string{"rspeed", "puwmod"} {
		w, err := workloads.Build(name, workloads.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = w.Program
	}
	return progs
}

// TestLogEqualsLiveWitness holds the read log to what it replaces: for
// every IU and CMEM net, the logged runs expand to exactly the accumulators
// a live witness records cycle by cycle over the same continuation — reads,
// and what each clock edge did with a register's word, an untouched edge
// kept on unread cycles alone — and the logged raw values — followed at every boundary for signals, on touched
// cycles for array words — equal the stepped core's word at every boundary,
// through the cursor and (on a rotating sixteenth of the nets, every
// boundary) through valueAt's search.
func TestLogEqualsLiveWitness(t *testing.T) {
	for name, p := range logPrograms(t) {
		t.Run(name, func(t *testing.T) {
			r, err := NewRunner(p, Options{InjectAtFraction: 0.3})
			if err != nil {
				t.Skipf("no golden run: %v", err)
			}
			nets := allNets(r)
			extras := allExtras(r, nets)
			logs := r.logWalk(nets, extras)
			if logs == nil {
				t.Fatal("the logging walk's witness did not arm")
			}

			eng := r.getEngine()
			r.ladder().fork(eng, r.ladder().start)
			core := eng.core
			w := liveWitness(t, core, nets, extras)
			defer w.Stop()
			run := make([]int, len(nets)) // per net, the first run not wholly behind the walk
			val := make([]int, len(nets)) // per net, the next change
			cur := make([]uint64, len(nets))
			for i, lg := range logs {
				cur[i] = lg.v0
			}
			var evs []rtl.WitnessEvent
			live := make([]rtl.WitnessAcc, len(nets))
			events, runs, replaced, untouched := 0, 0, 0, 0
			for core.Status() == iss.StatusRunning {
				at := core.Cycles()
				for i, lg := range logs {
					if val[i] < lg.vals.n && uint64(lg.vals.at(val[i]).t) == at {
						cur[i] = lg.vals.at(val[i]).v
						val[i]++
					}
					if got := w.Sample(i); cur[i] != got {
						t.Fatalf("%v at boundary %d: logged word %#x, the core holds %#x", nets[i], at, cur[i], got)
					}
					if uint64(i%16) == at%16 && lg.valueAt(at) != cur[i] {
						t.Fatalf("%v: valueAt(%d) = %#x, want %#x", nets[i], at, lg.valueAt(at), cur[i])
					}
				}
				core.StepCycle()
				clear(live)
				evs = w.Drain(evs[:0])
				events += len(evs)
				for _, e := range evs {
					live[e.Net] = e.Acc
					live[e.Net].Untouched = e.Acc.Untouched && e.Acc.Ones|e.Acc.Zeros == 0
					if extras[e.Net]&logEdges != 0 && e.Acc.WriteFirst {
						replaced++
					}
					if e.Acc.Untouched {
						untouched++
					}
				}
				for i, lg := range logs {
					var logged rtl.WitnessAcc
					if run[i] < lg.runs.n {
						ru := lg.runs.at(run[i])
						if uint64(ru.t) <= at {
							logged = rtl.WitnessAcc{Ones: ru.ones, Zeros: ru.zeros, WriteFirst: ru.writeFirst, Untouched: ru.untouched}
							if uint64(ru.t)+uint64(ru.n) == at+1 {
								run[i]++
							}
						}
					}
					if logged != live[i] {
						t.Fatalf("%v at cycle %d: logged %+v, live witness %+v", nets[i], at, logged, live[i])
					}
				}
			}
			for i, lg := range logs {
				runs += lg.runs.n
				if run[i] != lg.runs.n {
					t.Errorf("%v: %d of %d logged runs lie past what the live witness saw", nets[i], lg.runs.n-run[i], lg.runs.n)
				}
			}
			if events == 0 || replaced == 0 || untouched == 0 {
				t.Fatalf("the live witness recorded %d events, %d registers replaced unread, %d edges untouched", events, replaced, untouched)
			}
			t.Logf("%d nets over %d cycles: %d events in %d runs, %d registers replaced unread, %d edges untouched",
				len(nets), r.GoldenCycles-r.ladder().start, events, runs, replaced, untouched)
		})
	}
}

// mixedCampaign is a campaign over IU and CMEM nodes under every model, so
// that signals, array words, polled and unpolled nets all ride it.
func mixedCampaign(r *Runner, n int, seed int64) []Experiment {
	nodes := append(SampleNodes(Nodes(TargetIU), n, seed), SampleNodes(Nodes(TargetCMEM), n/2, seed)...)
	exps := Expand(nodes, rtl.AllFaultModels()...)
	r.ScheduleTransients(exps, seed)
	return exps
}

// TestLogStateIndependence: a campaign's results do not depend on what the
// runner's log holds — nothing (a fresh runner), everything it needs and
// more (20 other campaigns ran first), or never anything (budget 0: every
// net is logged for the campaign alone and dropped with it) — and equal the
// from-reset reference's.
func TestLogStateIndependence(t *testing.T) {
	for name, p := range logPrograms(t) {
		t.Run(name, func(t *testing.T) {
			opts := Options{InjectAtFraction: 0.3, PulseCycles: 2}
			fresh, ref := enginePair(t, p, opts)
			exps := mixedCampaign(fresh, 24, 5)
			want := ref.Campaign(exps, 0)
			check := func(state string, r *Runner, reg *obs.Registry) map[string]float64 {
				t.Helper()
				for _, workers := range []int{1, 2} {
					if got := r.Campaign(exps, workers); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s runner, %d workers: results differ from the from-reset reference", state, workers)
					}
				}
				if reg == nil {
					return nil
				}
				return engineCounters(t, reg)
			}
			check("fresh", fresh, nil)

			reg := obs.NewRegistry()
			opts.Obs = reg
			warm, _ := NewRunner(p, opts)
			for seed := int64(10); seed < 30; seed++ {
				warm.Campaign(mixedCampaign(warm, 24, seed), 2)
			}
			walked := engineCounters(t, reg)["engine_golden_pass_cycles_total"]
			c := check("warmed", warm, reg)
			t.Logf("warmed by 20 campaigns: %v bytes of log, %v nets logged, %v hits",
				c["engine_golden_log_bytes"], c[`engine_golden_log_nets_total{result="logged"}`], c[`engine_golden_log_nets_total{result="hit"}`])
			if c["engine_golden_log_bytes"] != float64(warm.log.bytes) || warm.log.bytes > logBudget {
				t.Errorf("log gauge %v, log holds %d bytes, budget %d", c["engine_golden_log_bytes"], warm.log.bytes, logBudget)
			}
			// The second run of the campaign found every net logged.
			warm.Campaign(exps, 2)
			if again := engineCounters(t, reg)["engine_golden_pass_cycles_total"]; again != c["engine_golden_pass_cycles_total"] || again > walked+float64(warm.GoldenCycles) {
				t.Errorf("golden cycles stepped: %v after warming, %v after the campaign, %v after its repeat", walked, c["engine_golden_pass_cycles_total"], again)
			}

			reg = obs.NewRegistry()
			opts.Obs = reg
			none, _ := NewRunner(p, opts)
			none.log.budget = 0
			c = check("budget-0", none, reg)
			if none.log.bytes != 0 || none.log.logged() != 0 || c[`engine_golden_log_nets_total{result="scratch"}`] == 0 ||
				c[`engine_golden_log_nets_total{result="logged"}`]+c[`engine_golden_log_nets_total{result="hit"}`] != 0 {
				t.Errorf("budget 0: the log holds %d bytes over %d nets, counters %v", none.log.bytes, none.log.logged(), c)
			}
			if span := float64(none.GoldenCycles - none.ladder().start); c["engine_golden_pass_cycles_total"] != 2*span {
				t.Errorf("budget 0: %v golden cycles over two campaigns, want one %v-cycle walk each", c["engine_golden_pass_cycles_total"], span)
			}
		})
	}
}

// TestConcurrentCampaignsShareTheLog is the service's shard shape: four
// goroutines run different campaigns on one cold runner at once. Every
// result equals the serial run's on another runner, and — every net being
// asked for with its raw values from the start — no net is logged twice
// however the walks interleave: the nets logged are the distinct nets of
// the four campaigns.
func TestConcurrentCampaignsShareTheLog(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{InjectAtFraction: 0.4, PulseCycles: 2}
	serial, err := NewRunner(w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Obs = reg
	r, err := NewRunner(w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	var camps [shards][]Experiment
	var want [shards][]Result
	distinct := map[rtl.WitnessNet]bool{}
	for i := range camps {
		camps[i] = mixedCampaign(serial, 32, int64(40+i))
		want[i] = serial.Campaign(camps[i], 1)
		for _, e := range camps[i] {
			// Every valid node of these targets has a lane under some model.
			distinct[rtl.WitnessNet{Name: e.Node.Node.Name, Word: e.Node.Node.Word}] = true
		}
	}
	var wg sync.WaitGroup
	for i := range camps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := r.Campaign(camps[i], 2); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("campaign %d beside three others differs from its serial run", i)
			}
		}()
	}
	wg.Wait()
	c := engineCounters(t, reg)
	if logged := c[`engine_golden_log_nets_total{result="logged"}`]; logged != float64(len(distinct)) || r.log.logged() != len(distinct) {
		t.Errorf("%v nets logged, %d in the log, over %d distinct nets: a net was walked twice, or not at all", logged, r.log.logged(), len(distinct))
	}
	if walks := c["engine_golden_pass_cycles_total"] / float64(r.GoldenCycles-r.ladder().start); walks < 1 || walks > shards {
		t.Errorf("%v walks for %d concurrent cold campaigns", walks, shards)
	}
}

// TestParksOnLogsPublishedMidRun holds a park to the logs the runner has
// published when it asks, by whichever campaign: Runner.park loads them
// without the log's lock. Upsets of the instruction cache's data run wrong
// instructions and spread into the register file; a second campaign, of
// upsets on every register-file word, publishes those words' logs. Run after
// the second, the first campaign steps fewer faulted cycles than on a fresh
// runner, because its universes park on words its own plan never logged. Run
// both at once on a cold runner, and one parks on what the other publishes
// mid-run, under the race detector's eye. Every run equals the from-reset
// reference byte for byte.
func TestParksOnLogsPublishedMidRun(t *testing.T) {
	p, err := asm.Assemble(difftest.Generate(4, difftest.AllFeatures(200)), mem.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{PulseCycles: 2}
	_, ref := enginePair(t, p, opts)
	var icache, regfile []Experiment
	var ic []NodeInfo
	for _, n := range Nodes(TargetCMEM) {
		if n.Node.Name == "cmem.ic.data" {
			ic = append(ic, n)
		}
	}
	icache = Expand(SampleNodes(ic, 64, 1), rtl.BitFlip, rtl.SETPulse)
	ref.ScheduleTransients(icache, 1)
	for _, n := range Nodes(TargetIU) {
		if n.Node.Name == "iu.rf.regs" && n.Node.Bit == n.Node.Word%32 {
			regfile = append(regfile, Experiment{Node: n, Model: rtl.BitFlip})
		}
	}
	ref.ScheduleTransients(regfile, 2)
	camps := [][]Experiment{icache, regfile}
	want := [][]Result{ref.Campaign(icache, 2), ref.Campaign(regfile, 2)}

	// cycles runs the campaigns in order on a fresh runner and returns the
	// faulted cycles the last one stepped.
	cycles := func(order ...int) float64 {
		reg := obs.NewRegistry()
		o := opts
		o.Obs = reg
		r, err := NewRunner(p, o)
		if err != nil {
			t.Fatal(err)
		}
		var before float64
		for _, i := range order {
			before = engineCounters(t, reg)["engine_faulted_cycles_total"]
			if got := r.Campaign(camps[i], 2); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("campaign %d after %v differs from the reference", i, order)
			}
		}
		return engineCounters(t, reg)["engine_faulted_cycles_total"] - before
	}
	alone, after := cycles(0), cycles(1, 0)
	if after >= alone {
		t.Errorf("instruction-cache upsets step %v faulted cycles after the register file was logged, %v alone: they parked on no word of it", after, alone)
	}
	t.Logf("instruction-cache upsets: %v faulted cycles alone, %v after the register file was logged", alone, after)

	r, err := NewRunner(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range camps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := r.Campaign(camps[i], 2); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("campaign %d beside the other differs from the reference", i)
			}
		}()
	}
	wg.Wait()
}

// footprintEnv marks the process TestLogFootprint re-executes the test
// binary into to measure the heap.
const footprintEnv = "FAULT_TEST_LOG_FOOTPRINT"

// TestLogFootprint holds the read log to its budget beside
// TestLadderFootprint: after a campaign has asked for every IU and CMEM net
// with its raw values and its clock edges, what the runner retains is within logBudget, by the
// log's own books and by the heap's, and the books are not far from the
// heap (the flat per-net charge covers the struct; the runner holds a slot
// for every net of the design from its construction on).
//
// The books of a full log sit a few hundred bytes under the budget, and the
// process's heap moves by kilobytes a test does not control — a sync.Pool's
// victim cache, another test's goroutine — so the heap counted is what the
// runtime's heap profile says the allocations made under readLogs retain,
// every allocation sampled. The rate is set once, in a process of its own:
// the test binary run again for each subtest alone, which prints its
// measurement for the subtest here to log.
func TestLogFootprint(t *testing.T) {
	child := os.Getenv(footprintEnv) == "1"
	if child {
		runtime.MemProfileRate = 1
	}
	for _, name := range []string{"rspeed", "puwmod"} {
		t.Run(name, func(t *testing.T) {
			if !child {
				cmd := exec.Command(os.Args[0], "-test.run=^TestLogFootprint$/^"+name+"$", "-test.count=1")
				cmd.Env = append(os.Environ(), footprintEnv+"=1")
				out, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("the child process: %v\n%s", err, out)
				}
				t.Logf("measured in a child process:\n%s", strings.TrimSuffix(string(out), "PASS\n"))
				return
			}
			w, err := workloads.Build(name, workloads.Config{Iterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(w.Program, Options{})
			if err != nil {
				t.Fatal(err)
			}
			r.PrepareCheckpoint()
			// The walk keeps an engine: one stepped through a walk already is
			// no part of what the log retains.
			r.logWalk(allNets(r)[:1], make([]logExtra, 1))
			m := &memo{nets: netIDs(allNets(r)), extras: allExtras(r, allNets(r))}
			before := walkHeap()
			r.readLogs(m)
			logged, runs, vals := r.log.logged(), 0, 0
			for _, lg := range m.logs {
				runs += lg.runs.n
				vals += lg.vals.n
			}
			asked := len(m.nets)
			m = nil // what did not fit was the campaign's alone
			heap := walkHeap() - before
			fmt.Printf("%d nets over %d cycles: %d runs, %d value changes; %d nets kept in %d bytes by the log's books, %d of heap\n",
				asked, r.GoldenCycles, runs, vals, logged, r.log.bytes, heap)
			if r.log.bytes > logBudget || heap > logBudget {
				t.Errorf("the log retains %d bytes by its books, %d of heap; budget %d", r.log.bytes, heap, logBudget)
			}
			if logged == 0 || r.log.bytes < heap*3/4 || heap < r.log.bytes*3/4 {
				t.Errorf("%d nets logged; the books say %d bytes where the heap says %d", logged, r.log.bytes, heap)
			}
			runtime.KeepAlive(r)
		})
	}
}

// walkHeap returns the bytes the heap profile says allocations made under
// Runner.readLogs retain, after the collections that bring it up to date.
func walkHeap() int {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, false)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, false)
	}
	inUse := 0
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		for more := true; more; {
			var f runtime.Frame
			if f, more = frames.Next(); f.Function == "repro/internal/fault.(*Runner).readLogs" {
				inUse += int(rec.InUseBytes())
				break
			}
		}
	}
	return inUse
}

// bruteProbe is the stateful activation predicate a live witness is drained
// through cycle by cycle: armed from the lane's instant, it fires when a
// cycle's accumulator shows the faulted bit read with the polarity the
// forcing inverts; an upset's is disarmed the cycle its word is touched —
// replaced unread it dies; read, or dropped by an edge that took the pending
// word, it fires once.
type bruteProbe struct {
	shift                  uint8
	forcedOne, flip, armed bool
}

func (p *bruteProbe) fires(a rtl.WitnessAcc) bool {
	if !p.armed {
		return false
	}
	if p.flip {
		p.armed = a == rtl.WitnessAcc{}
		return !p.armed && !a.WriteFirst
	}
	m := a.Ones
	if p.forcedOne {
		m = a.Zeros
	}
	return m>>p.shift&1 != 0
}

// TestNextActivationMatchesLiveWitness holds the lane's one question to a
// cycle-by-cycle oracle. A live witness is walked over the golden
// continuation and every net's per-cycle accumulators kept; then, for every
// IU and CMEM net, its lowest, middle and highest bit, all five models and
// instants at rung 0, mid-run, with the glitch window closing on the last
// cycle, on the last cycle and past exit, the lane batchLane builds must
// carry the polarity the stepped core's word gives it and activate where
// the brute-force predicate first fires, and nextActivation must answer,
// for from values before the instant, on a run's first, middle and last
// cycle and one past it, one past each of the first activations, around
// the window's end and past exit, the first cycle at or after from the
// predicate fired at — an upset's armed afresh at from, the boundary a park
// asks from.
func TestNextActivationMatchesLiveWitness(t *testing.T) {
	const pulse = 3
	type event struct {
		t   uint64
		acc rtl.WitnessAcc
	}
	if p := (bruteProbe{armed: true, flip: true}); p.fires(rtl.WitnessAcc{}) || !p.armed {
		t.Fatal("an untouched cycle fires or spends a probe: the oracle may not skip them")
	}
	for name, p := range logPrograms(t) {
		for _, frac := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s@%v", name, frac), func(t *testing.T) {
				r, err := NewRunner(p, Options{InjectAtFraction: frac, PulseCycles: pulse})
				if err != nil {
					t.Skipf("no golden run: %v", err)
				}
				nets := allNets(r)
				netIdx := map[rtl.WitnessNet]int{}
				for i, n := range nets {
					netIdx[n] = i
				}
				extras := allExtras(r, nets)
				logs := r.logWalk(nets, extras)
				if logs == nil {
					t.Fatal("the logging walk's witness did not arm")
				}
				start, end := r.ladder().start, r.GoldenCycles
				instants := []uint64{start, (start + end) / 2, end - pulse, end - 1, end + 9}

				// The live walk: each net's touched cycles (an untouched one
				// has the empty accumulator) and its raw word at the instants.
				eng := r.getEngine()
				r.ladder().fork(eng, r.ladder().start)
				core := eng.core
				w := liveWitness(t, core, nets, extras)
				live := make([][]event, len(nets))
				charge := make([][]uint64, len(nets)) // per net, per instant
				for i := range charge {
					charge[i] = make([]uint64, len(instants))
				}
				var evs []rtl.WitnessEvent
				for core.Status() == iss.StatusRunning {
					at := core.Cycles()
					for k, c := range instants {
						if c == at {
							for i := range nets {
								charge[i][k] = w.Sample(i)
							}
						}
					}
					core.StepCycle()
					evs = w.Drain(evs[:0])
					for _, e := range evs {
						live[e.Net] = append(live[e.Net], event{at, e.Acc})
					}
				}
				w.Stop()
				r.putEngine(eng)

				byNet := make([][]NodeInfo, len(nets))
				for _, target := range []Target{TargetIU, TargetCMEM} {
					for _, n := range Nodes(target) {
						i := netIdx[rtl.WitnessNet{Name: n.Node.Name, Word: n.Node.Word}]
						byNet[i] = append(byNet[i], n)
					}
				}
				lanes, asked, activated := 0, 0, 0
				var fired []uint64
				for i, bits := range byNet {
					for _, node := range []NodeInfo{bits[0], bits[len(bits)/2], bits[len(bits)-1]} {
						for _, model := range rtl.AllFaultModels() {
							for k, at := range instants {
								if !model.Transient() && k > 0 {
									continue // one instant: the runner's
								}
								e := Experiment{Node: node, Model: model, AtCycle: at}
								var l lane
								act := r.batchLane(&l, &e, logs[i])
								lanes++

								// The oracle: polarity from the stepped core's word,
								// every cycle the stateful predicate fires at.
								bp := bruteProbe{shift: uint8(node.Node.Bit), flip: model == rtl.BitFlip}
								window := end
								switch model {
								case rtl.StuckAt1:
									bp.forcedOne = true
								case rtl.OpenLine:
									bp.forcedOne = charge[i][0]>>bp.shift&1 != 0
								case rtl.SETPulse:
									bp.forcedOne = charge[i][k]>>bp.shift&1 == 0
									window = min(end, at+pulse)
								}
								bp.armed = at < window
								fired = fired[:0]
								for _, ev := range live[i] {
									if ev.t >= at && ev.t < window && bp.fires(ev.acc) {
										fired = append(fired, ev.t)
									}
								}
								first := func(from uint64) int64 {
									if bp.flip {
										again := bruteProbe{flip: true, armed: at < window}
										for _, ev := range live[i] {
											if ev.t >= max(from, at) && again.fires(ev.acc) {
												return int64(ev.t)
											}
										}
										return -1
									}
									for _, c := range fired {
										if c >= from {
											return int64(c)
										}
									}
									return -1
								}

								if at < window && !l.flip && l.forcedOne != bp.forcedOne {
									t.Fatalf("%v %v@%d: lane forces %v, the core's word says %v", model, node.Node, at, l.forcedOne, bp.forcedOne)
								}
								if want := first(0); act != (want >= 0) || act && l.activateAt != uint64(want) {
									t.Fatalf("%v %v@%d: lane activated %v at %d, the live witness first fires at %d", model, node.Node, at, act, l.activateAt, want)
								}
								if act {
									activated++
								}
								froms := []uint64{start, at - 1, at, at + 1, at + pulse - 1, at + pulse, at + pulse + 1, end - 1, end, end + 5}
								if at == 0 {
									froms[1] = 0
								}
								for n, j := 0, 0; j < logs[i].runs.n && n < 3; j++ {
									if ru := logs[i].runs.at(j); uint64(ru.t)+uint64(ru.n) > at {
										lo, len := uint64(ru.t), uint64(ru.n)
										froms = append(froms, lo, lo+len/2, lo+len-1, lo+len)
										n++
									}
								}
								for _, c := range fired[:min(3, len(fired))] {
									froms = append(froms, c+1)
								}
								for _, from := range froms {
									asked++
									if got, want := l.nextActivation(from), first(from); got != want {
										t.Fatalf("%v %v@%d: nextActivation(%d) = %d, the live witness next fires at %d (fired at %v)",
											model, node.Node, at, from, got, want, fired)
									}
								}
							}
						}
					}
				}
				if activated == 0 || activated == lanes {
					t.Fatalf("%d of %d lanes activated: the sample does not reach both answers", activated, lanes)
				}
				t.Logf("%d nets over cycles [%d,%d): %d lanes, %d activated, %d questions", len(nets), start, end, lanes, activated, asked)
			})
		}
	}
}

// TestFirstActivationMatchesScan holds the log-start answer — the first-read
// table a walk fills per bit (netLog.first) — to a scan over the net's runs
// written here: for every IU and CMEM net, at fixed instants 0 and 0.3, every
// bit and both polarities, with no window end and with one at rung 0's next
// cycle or mid-run, a forcing asked from the log's start (or before it)
// activates where the scan first finds its bit read with the value it
// inverts, inside the window.
func TestFirstActivationMatchesScan(t *testing.T) {
	for name, p := range logPrograms(t) {
		for _, frac := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s@%v", name, frac), func(t *testing.T) {
				r, err := NewRunner(p, Options{InjectAtFraction: frac})
				if err != nil {
					t.Skipf("no golden run: %v", err)
				}
				nets := allNets(r)
				logs := r.logWalk(nets, make([]logExtra, len(nets)))
				if logs == nil {
					t.Fatal("the logging walk's witness did not arm")
				}
				start := r.ladder().start
				scan := func(lg *netLog, bit int, forcedOne bool, end uint64) int64 {
					for j := 0; j < lg.runs.n; j++ {
						ru := lg.runs.at(j)
						if end != 0 && uint64(ru.t) >= end {
							break
						}
						m := ru.ones
						if forcedOne {
							m = ru.zeros
						}
						if m>>bit&1 != 0 {
							return int64(ru.t)
						}
					}
					return -1
				}
				asked, activated := 0, 0
				for i, lg := range logs {
					for bit := 0; bit < 64; bit++ {
						for _, forcedOne := range []bool{false, true} {
							for _, end := range []uint64{0, start + 1, (start + r.GoldenCycles) / 2} {
								l := lane{injectAt: start, pulseEnd: end, log: lg, probe: probe{shift: uint8(bit), forcedOne: forcedOne}}
								want := scan(lg, bit, forcedOne, end)
								for _, from := range []uint64{0, start} {
									asked++
									if got := l.nextActivation(from); got != want {
										t.Fatalf("%v bit %d forced to %v, window end %d: nextActivation(%d) = %d, the scan says %d",
											nets[i], bit, forcedOne, end, from, got, want)
									}
								}
								if want >= 0 {
									activated++
								}
							}
						}
					}
				}
				if activated == 0 || activated == asked/2 {
					t.Fatalf("%d of %d questions activated: the nets do not reach both answers", activated, asked/2)
				}
			})
		}
	}
}
