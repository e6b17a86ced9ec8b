package main

import (
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are nanoseconds since the process started; Parent indexes the
// span that caused this one (-1 for a root); ID is the short content
// address of the campaign the call served, shared by all its spans.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps the spans of a traced run in memory; they are written out
// once, when the run ends. A nil tracer records nothing, so the untraced
// run pays one nil check per call site. Only the benchmark's own
// goroutine records spans.
type tracer struct {
	spans []span
}

func sinceStart() int64 { return int64(time.Since(processStart)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Start: sinceStart(), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = sinceStart()
	}
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name, id string, parent int, start, end int64) {
	if t != nil {
		t.spans = append(t.spans, span{Name: name, ID: id, Start: start, End: end, Parent: parent})
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once and a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += ns
	}
	return out
}

// durations returns the durations, in the given unit, of every span with
// the given name, in recording order.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}
