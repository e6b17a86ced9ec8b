package fault

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// planByName is the plan's loop as it was before a node carried its facts:
// every question asked of a kernel by the node's name, every net found
// through a map keyed by (Name, Word). It is the oracle for the memo's netOf
// and for each net's extras.
func planByName(k *rtl.Kernel, exps []Experiment, injectAt uint64) (netOf []int32, nets []rtl.WitnessNet, extras []logExtra) {
	idx := map[rtl.WitnessNet]int32{}
	netOf = make([]int32, len(exps))
	for i, e := range exps {
		netOf[i] = -1
		var extra logExtra
		switch node := e.Node.Node; {
		case e.Model == rtl.SETPulse:
			extra = logValues
		case e.Model == rtl.BitFlip && k.EdgesWatchable(node):
			extra = logEdges
		case e.Model == rtl.BitFlip && !k.IsArrayWord(node):
			continue
		}
		if e.Model.Transient() && e.AtCycle < injectAt || !k.NodeValid(e.Node.Node) {
			continue
		}
		wn := rtl.WitnessNet{Name: e.Node.Node.Name, Word: e.Node.Node.Word}
		ni, ok := idx[wn]
		if !ok {
			ni = int32(len(nets))
			idx[wn] = ni
			nets, extras = append(nets, wn), append(extras, 0)
		}
		netOf[i] = ni
		extras[ni] |= extra
	}
	return netOf, nets, extras
}

// TestNodeFactsMatchKernel holds the design table to the kernel it replaces
// at plan time. Every enumerated node of both targets carries the NodeValid,
// EdgesWatchable and IsArrayWord answers of a fresh kernel, and two nodes
// share a net id exactly when they share (Name, Word), across IU and CMEM.
// One campaign over every node, a hand-built copy of each and hand-built
// invalid nodes (an unknown name, a word or bit out of range), under every
// model, with transients before the first rung too, plans as the name-lookup
// loop does: the same netOf, the same nets with the same extras; a copy
// plans to its node's entry, and the invalid nodes stay scalar. The facts
// ride in NodeInfo's padding: it stays 56 bytes.
func TestNodeFactsMatchKernel(t *testing.T) {
	if size := unsafe.Sizeof(NodeInfo{}); size != 56 {
		t.Errorf("NodeInfo is %d bytes, want 56", size)
	}
	k := leon3.New(mem.NewBus(mem.NewMemory()), 0).K
	d := design()
	byNet := map[rtl.WitnessNet]int32{}
	var all []NodeInfo
	for _, target := range []Target{TargetIU, TargetCMEM} {
		for _, n := range d.nodesOf(target) {
			want := factsSet
			if k.NodeValid(n.Node) {
				want |= nodeValid
			}
			if k.EdgesWatchable(n.Node) {
				want |= edgesWatchable
			}
			if k.IsArrayWord(n.Node) {
				want |= arrayWord
			}
			if n.facts != want || want&nodeValid == 0 {
				t.Fatalf("%v %v: facts %04b, the kernel says %04b", target, n.Node, n.facts, want)
			}
			wn := rtl.WitnessNet{Name: n.Node.Name, Word: n.Node.Word}
			if id, ok := byNet[wn]; ok && id != n.net || d.nets[n.net] != wn {
				t.Fatalf("%v %v: net id %d, the net's first node has %d, the id names %v", target, n.Node, n.net, id, d.nets[n.net])
			}
			byNet[wn] = n.net
			all = append(all, n)
		}
	}
	seen := map[int32]bool{}
	for wn, id := range byNet {
		if seen[id] {
			t.Fatalf("net id %d is shared by %v and another net", id, wn)
		}
		seen[id] = true
	}

	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, PulseCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	hand := make([]NodeInfo, len(all))
	for i, n := range all {
		hand[i] = NodeInfo{Node: n.Node, Unit: n.Unit}
	}
	sig, arr := k.Signals()[0], k.Arrays()[0]
	invalid := []NodeInfo{
		{Node: rtl.Node{Name: "no.such.net"}},
		{Node: rtl.Node{Name: sig.Name(), Word: 1}},
		{Node: rtl.Node{Name: sig.Name(), Bit: sig.Width()}},
		{Node: rtl.Node{Name: sig.Name(), Bit: -1}},
		{Node: rtl.Node{Name: arr.Name(), Word: arr.Len()}},
		{Node: rtl.Node{Name: arr.Name(), Word: -1}},
		{Node: rtl.Node{Name: arr.Name(), Word: 1, Bit: arr.Width()}},
	}
	nodes := slices.Concat(all, hand, invalid)
	models := rtl.AllFaultModels()
	exps := Expand(nodes, models...)
	r.ScheduleTransients(exps, 1)
	for _, n := range []NodeInfo{all[0], hand[len(hand)-1]} {
		exps = append(exps, Experiment{Node: n, Model: rtl.BitFlip}, Experiment{Node: n, Model: rtl.SETPulse})
	}
	m := r.planBatches(exps)
	defer r.putMemo(m)
	netOf, nets, extras := planByName(k, exps, r.opts.InjectAtCycle)
	if !slices.Equal(m.netOf, netOf) {
		t.Fatal("the plan's netOf differs from the name-lookup loop's")
	}
	if len(m.nets) != len(nets) {
		t.Fatalf("the plan has %d nets, the name-lookup loop %d", len(m.nets), len(nets))
	}
	for i, id := range m.nets {
		if d.nets[id] != nets[i] || m.extras[i] != extras[i] {
			t.Fatalf("net %d: %v with extras %b, the name-lookup loop's %v with %b", i, d.nets[id], m.extras[i], nets[i], extras[i])
		}
	}
	for mi, model := range models {
		row := exps[mi*len(nodes):]
		for j, n := range all {
			if row[j].Node != n || row[len(all)+j].Node != hand[j] {
				t.Fatal("the expansion is not laid out as this test reads it")
			}
			if got, want := m.netOf[mi*len(nodes)+len(all)+j], m.netOf[mi*len(nodes)+j]; got != want {
				t.Fatalf("%v on a hand-built %v plans to net %d, the enumerated node to %d", model, n.Node, got, want)
			}
		}
		for j, n := range invalid {
			if got := m.netOf[mi*len(nodes)+2*len(all)+j]; got >= 0 {
				t.Fatalf("%v on the invalid %v plans to net %d, want scalar", model, n.Node, got)
			}
		}
	}
	for _, e := range m.netOf[len(nodes)*len(models):] {
		if e >= 0 {
			t.Fatal("a transient before the first rung plans as a lane")
		}
	}
}
