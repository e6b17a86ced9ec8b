package obs

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp pins the seam the whole design rests on: a nil
// registry (the library path) hands out handles whose every method is
// safe and does nothing.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c", "h").Inc()
	r.Counter("c", "h").Add(3)
	r.Gauge("g", "h").Set(1)
	r.Gauge("g", "h").Add(-1)
	r.Gauge("g", "h").Inc()
	r.Gauge("g", "h").Dec()
	r.Histogram("hist", "h", DurationBuckets).Observe(0.5)
	r.CounterVec("cv", "h", "a").With("x").Inc()
	r.HistogramVec("hv", "h", DurationBuckets, "a").With("x").Observe(1)
	r.GaugeFunc("gf", "h", func() float64 { return 1 })
	r.CounterFunc("cf", "h", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q, want empty", sb.String())
	}
	var tr *Tracer
	tr.Stage("x")()
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned spans")
	}
}

// TestLabelEscaping covers the three characters the exposition format
// requires escaping in label values: backslash, double quote, newline.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("evil", "help", "path").With(`a\b"c` + "\nd").Inc()
	out := render(t, r)
	want := `evil{path="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("escaped series line missing:\nwant substring %q\ngot:\n%s", want, out)
	}
}

// TestDeterministicOrdering: families render sorted by name and series
// sorted by label values, independent of registration or touch order.
func TestDeterministicOrdering(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("zeta", "z", "route", "code")
	v.With("/b", "500").Inc()
	v.With("/a", "200").Inc()
	v.With("/a", "404").Inc()
	r.Counter("alpha", "a").Inc()
	out := render(t, r)
	idx := func(sub string) int {
		i := strings.Index(out, sub)
		if i < 0 {
			t.Fatalf("missing %q in:\n%s", sub, out)
		}
		return i
	}
	if !(idx("# HELP alpha") < idx("# HELP zeta")) {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	a200 := idx(`zeta{route="/a",code="200"} 1`)
	a404 := idx(`zeta{route="/a",code="404"} 1`)
	b500 := idx(`zeta{route="/b",code="500"} 1`)
	if !(a200 < a404 && a404 < b500) {
		t.Fatalf("series not sorted by label values:\n%s", out)
	}
	// Re-render must be byte-identical: ordering is deterministic, not
	// merely sorted-this-time.
	if again := render(t, r); again != out {
		t.Fatalf("re-render differs:\n--- first\n%s\n--- second\n%s", out, again)
	}
}

// TestHistogramCumulativeBuckets: bucket counts are cumulative, the +Inf
// bucket equals _count, and _sum is the sum of observations.
func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.05, 0.3, 0.9, 2.5} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`lat_bucket{le="0.1"} 2`,
		`lat_bucket{le="0.5"} 3`,
		`lat_bucket{le="1"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Sum: 0.05+0.05+0.3+0.9+2.5 = 3.8 (watch float formatting).
	if !strings.Contains(out, "lat_sum 3.8") {
		t.Errorf("missing lat_sum 3.8 in:\n%s", out)
	}
}

// TestHistogramBoundaryInclusive: an observation equal to a bucket bound
// lands in that bucket (le is <=).
func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "h", []float64{1, 2})
	h.Observe(1)
	out := render(t, r)
	if !strings.Contains(out, `b_bucket{le="1"} 1`+"\n") {
		t.Fatalf("observation at bound not counted le-inclusively:\n%s", out)
	}
}

// TestGoldenOutput locks the full exposition byte-for-byte so the format
// cannot drift: HELP/TYPE lines, label rendering, histogram triplets,
// callback metrics, float formatting.
func TestGoldenOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("exp_total", "Experiments executed.").Add(240)
	g := r.Gauge("queue_depth", "Jobs queued.")
	g.Set(3)
	g.Dec()
	r.GaugeFunc("journal_bytes", "Journal size.", func() float64 { return 4096 })
	hv := r.HistogramVec("stage_seconds", "Stage timing.", []float64{0.5, 1}, "stage")
	hv.With("golden").Observe(0.25)
	hv.With("execute").Observe(0.75)
	hv.With("execute").Observe(4)
	cv := r.CounterVec("http_requests_total", "Requests.", "route", "code")
	cv.With("/metrics", "200").Add(2)

	const want = `# HELP exp_total Experiments executed.
# TYPE exp_total counter
exp_total 240
# HELP http_requests_total Requests.
# TYPE http_requests_total counter
http_requests_total{route="/metrics",code="200"} 2
# HELP journal_bytes Journal size.
# TYPE journal_bytes gauge
journal_bytes 4096
# HELP queue_depth Jobs queued.
# TYPE queue_depth gauge
queue_depth 2
# HELP stage_seconds Stage timing.
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="execute",le="0.5"} 0
stage_seconds_bucket{stage="execute",le="1"} 1
stage_seconds_bucket{stage="execute",le="+Inf"} 2
stage_seconds_sum{stage="execute"} 4.75
stage_seconds_count{stage="execute"} 2
stage_seconds_bucket{stage="golden",le="0.5"} 1
stage_seconds_bucket{stage="golden",le="1"} 1
stage_seconds_bucket{stage="golden",le="+Inf"} 1
stage_seconds_sum{stage="golden"} 0.25
stage_seconds_count{stage="golden"} 1
`
	if got := render(t, r); got != want {
		t.Fatalf("golden mismatch:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestCounterMonotone: negative Add is ignored.
func TestCounterMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "h")
	c.Add(5)
	c.Add(-3)
	if out := render(t, r); !strings.Contains(out, "c 5\n") {
		t.Fatalf("counter not monotone:\n%s", out)
	}
}

// TestReRegistrationShares: registering the same name twice yields the
// same underlying series — NewRunner calls during a process's lifetime
// must accumulate into one counter, not shadow each other.
func TestReRegistrationShares(t *testing.T) {
	r := NewRegistry()
	r.Counter("shared", "h").Inc()
	r.Counter("shared", "h").Inc()
	if out := render(t, r); !strings.Contains(out, "shared 2\n") {
		t.Fatalf("re-registration did not share series:\n%s", out)
	}
}

// TestSpecialFloats: +Inf bounds are dropped from explicit buckets (it is
// implicit) and special values render in canonical exposition spelling.
func TestSpecialFloats(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", "h", []float64{1, math.Inf(1)}).Observe(0.5)
	r.Gauge("inf", "h").Set(math.Inf(1))
	out := render(t, r)
	if strings.Count(out, `h_bucket{le="+Inf"}`) != 1 {
		t.Fatalf("+Inf bucket should appear exactly once:\n%s", out)
	}
	if !strings.Contains(out, "inf +Inf\n") {
		t.Fatalf("+Inf gauge misrendered:\n%s", out)
	}
}

// TestHandler: the HTTP handler serves the exposition with the versioned
// text content type, and a nil registry serves a valid empty body.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "h").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c 1\n") {
		t.Fatalf("handler body:\n%s", rec.Body.String())
	}
	var nilReg *Registry
	rec = httptest.NewRecorder()
	nilReg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("nil registry handler: code %d body %q", rec.Code, rec.Body.String())
	}
}

// TestConcurrentUpdates exercises the registry under the race detector:
// concurrent Inc/Observe/With/render must be safe and lose no updates.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "h")
	hv := r.HistogramVec("d", "h", []float64{1}, "lane")
	var wg sync.WaitGroup
	const workers, each = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := string(rune('a' + w%4))
			for i := 0; i < each; i++ {
				c.Inc()
				hv.With(lane).Observe(0.5)
				if i%100 == 0 {
					var sb strings.Builder
					r.WriteText(&sb)
				}
			}
		}()
	}
	wg.Wait()
	if out := render(t, r); !strings.Contains(out, "n 4000\n") {
		t.Fatalf("lost counter updates:\n%s", out)
	}
}

// TestTracer: stages record spans, feed the stage histogram, and stop
// functions are idempotent; the context round-trip preserves the tracer.
func TestTracer(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("stage_seconds", "h", DurationBuckets, "stage")
	tr := NewTracer(hv)
	stop := tr.Stage("golden")
	stop()
	stop() // idempotent: must not double-record
	tr.Stage("execute")()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Stage != "golden" || spans[1].Stage != "execute" {
		t.Fatalf("spans %+v", spans)
	}
	out := render(t, r)
	if !strings.Contains(out, `stage_seconds_count{stage="golden"} 1`+"\n") {
		t.Fatalf("golden stage not observed exactly once:\n%s", out)
	}
	ctx := WithTracer(context.Background(), tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("tracer lost in context round-trip")
	}
	if TracerFrom(context.Background()) != nil {
		t.Fatal("tracer conjured from empty context")
	}
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}
