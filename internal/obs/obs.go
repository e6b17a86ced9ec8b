// Package obs is the service's dependency-free observability kit: a
// metrics registry (counters, gauges, histograms, with optional labels)
// that renders the Prometheus text exposition format, plus a per-campaign
// stage-timing tracer (trace.go) that rides a context through the
// executor seam.
//
// The design constraint that shapes everything here is the no-op default:
// every constructor and every metric handle is safe to call on a nil
// receiver. A nil *Registry hands out nil *Counter/*Gauge/*Histogram
// handles whose methods do nothing, so instrumented code paths read
// identically whether or not a registry is wired in — and the library
// path (faultcampaign, the equivalence suites) runs with no registry at
// all, keeping campaign outcomes and content addresses byte-identical to
// the uninstrumented build. Metrics are observation, never input: nothing
// read from a registry may feed back into experiment planning, ordering,
// or encoding.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the three families the registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DurationBuckets is the default histogram bucket layout for latencies in
// seconds: sub-millisecond engine stages through multi-minute campaigns.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// family is one named metric: its metadata plus every labelled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu      sync.Mutex
	series  map[string]*series
	order   []*series      // insertion order; sorted at render time
	fn      func() float64 // callback metric (CounterFunc/GaugeFunc); nil otherwise
	buckets []float64      // histogram upper bounds, sorted, +Inf implicit
}

// series is one label-value combination of a family.
type series struct {
	labelValues []string

	valBits atomic.Uint64 // counter/gauge value as float64 bits

	// Histogram state, guarded by hmu.
	hmu    sync.Mutex
	counts []uint64 // per-bucket (non-cumulative) observation counts
	sum    float64
	count  uint64
}

func (s *series) addFloat(v float64) {
	for {
		old := s.valBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if s.valBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Registry holds metric families and renders them. The zero value is not
// useful — use NewRegistry — but a nil *Registry is: every method on it
// returns a no-op handle, which is the seam that keeps instrumentation
// out of the library path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// getOrCreate returns the family registered under name, creating it if
// absent. Re-registering an existing name with the same kind returns the
// existing family (instrumented components may share a registry and race
// to register); a kind mismatch is a programming error and panics.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with %d labels, was %d", name, len(labels), len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, series: map[string]*series{}}
	if kind == kindHistogram {
		f.buckets = normalizeBuckets(buckets)
	}
	r.families[name] = f
	return f
}

// normalizeBuckets sorts, dedupes, and strips non-finite bounds (+Inf is
// always implicit).
func normalizeBuckets(buckets []float64) []float64 {
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

const seriesKeySep = "\xff"

// seriesFor returns the series for the given label values, creating it on
// first use.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, seriesKeySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		s.counts = make([]uint64, len(f.buckets)+1) // +1 for the +Inf bucket
	}
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

// Counter is a monotonically increasing value. All methods are no-ops on
// a nil receiver.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v < 0 {
		return
	}
	c.s.addFloat(v)
}

// Gauge is a value that can go up and down. All methods are no-ops on a
// nil receiver.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.valBits.Store(math.Float64bits(v))
}

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.addFloat(v)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Histogram counts observations into cumulative buckets. Observe is a
// no-op on a nil receiver.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	idx := sort.SearchFloat64s(h.f.buckets, v) // first bucket with bound >= v
	h.s.hmu.Lock()
	h.s.counts[idx]++
	h.s.sum += v
	h.s.count++
	h.s.hmu.Unlock()
}

// CounterVec is a counter family with labels. With is nil-safe.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return &Counter{s: v.f.seriesFor(values)}
}

// HistogramVec is a histogram family with labels. With is nil-safe.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return &Histogram{f: v.f, s: v.f.seriesFor(values)}
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.getOrCreate(name, help, kindCounter, nil, nil)
	return &Counter{s: f.seriesFor(nil)}
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.getOrCreate(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getOrCreate(name, help, kindGauge, nil, nil)
	return &Gauge{s: f.seriesFor(nil)}
}

// Histogram registers (or returns) an unlabelled histogram with the given
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.getOrCreate(name, help, kindHistogram, nil, buckets)
	return &Histogram{f: f, s: f.seriesFor(nil)}
}

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.getOrCreate(name, help, kindHistogram, labels, buckets)}
}

// GaugeFunc registers a gauge whose value is computed by f at scrape
// time — the fit for values that already live behind a component's own
// lock (queue depth, journal size). Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	fam := r.getOrCreate(name, help, kindGauge, nil, nil)
	fam.mu.Lock()
	fam.fn = f
	fam.mu.Unlock()
}

// CounterFunc registers a counter whose value is read by f at scrape
// time. The caller guarantees monotonicity. Re-registering replaces the
// callback.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	fam := r.getOrCreate(name, help, kindCounter, nil, nil)
	fam.mu.Lock()
	fam.fn = f
	fam.mu.Unlock()
}

// WriteText renders every family in the Prometheus text exposition
// format: families sorted by name, series sorted by label values,
// histograms as cumulative _bucket/_sum/_count triplets.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	f.mu.Lock()
	fn := f.fn
	series := make([]*series, len(f.order))
	copy(series, f.order)
	f.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	if fn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(fn()))
		return err
	}
	sort.Slice(series, func(i, j int) bool {
		return lessStrings(series[i].labelValues, series[j].labelValues)
	})
	for _, s := range series {
		if err := f.writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, s *series) error {
	base := formatLabels(f.labels, s.labelValues, "", "")
	switch f.kind {
	case kindCounter, kindGauge:
		v := math.Float64frombits(s.valBits.Load())
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, base, formatFloat(v))
		return err
	case kindHistogram:
		s.hmu.Lock()
		counts := append([]uint64(nil), s.counts...)
		sum, count := s.sum, s.count
		s.hmu.Unlock()
		var cum uint64
		for i, bound := range f.buckets {
			cum += counts[i]
			le := formatLabels(f.labels, s.labelValues, "le", formatFloat(bound))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
				return err
			}
		}
		cum += counts[len(f.buckets)]
		le := formatLabels(f.labels, s.labelValues, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, count)
		return err
	}
	return nil
}

// formatLabels renders {k1="v1",...} with values escaped, appending the
// extra pair (the histogram le label) when extraKey is non-empty. Returns
// "" when there are no labels at all.
func formatLabels(keys, values []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func lessStrings(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Handler serves the registry in the text exposition format. Safe on a
// nil receiver (serves an empty, valid exposition).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
