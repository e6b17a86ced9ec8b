package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, eps float64) bool { return math.Abs(a-b) < eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty input not zero")
	}
}

func TestLinFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x+3
	a, b, r2, err := LinFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !close(a, 2, 1e-12) || !close(b, 3, 1e-12) || !close(r2, 1, 1e-12) {
		t.Errorf("fit = %v %v %v", a, b, r2)
	}
}

func TestLinFitErrors(t *testing.T) {
	if _, _, _, err := LinFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := LinFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("zero x-variance accepted")
	}
}

func TestLogFitRecoversModel(t *testing.T) {
	// Generate from the paper's Figure-7 model and recover it.
	const a0, b0 = 0.0838, -0.0191
	var xs, ys []float64
	for _, d := range []float64{8, 11, 18, 20, 47, 48} {
		xs = append(xs, d)
		ys = append(ys, EvalLog(a0, b0, d))
	}
	a, b, r2, err := LogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !close(a, a0, 1e-9) || !close(b, b0, 1e-9) || !close(r2, 1, 1e-9) {
		t.Errorf("recovered %v %v r2=%v", a, b, r2)
	}
}

func TestLogFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 50; i++ {
		x := 1 + rng.Float64()*49
		xs = append(xs, x)
		ys = append(ys, EvalLog(0.1, 0.02, x)+rng.NormFloat64()*0.005)
	}
	a, _, r2, err := LogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !close(a, 0.1, 0.02) {
		t.Errorf("slope = %v", a)
	}
	if r2 < 0.85 {
		t.Errorf("r2 = %v", r2)
	}
}

func TestLogFitRejectsNonPositive(t *testing.T) {
	if _, _, _, err := LogFit([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("x=0 accepted")
	}
}

func TestWilsonCIKnownValues(t *testing.T) {
	// Reference values computed from the closed-form Wilson score
	// interval (and cross-checked against statsmodels
	// proportion_confint(method="wilson")).
	cases := []struct {
		k, n   int
		z      float64
		lo, hi float64
	}{
		{10, 100, 1.96, 0.055229, 0.174367},
		{0, 20, 1.96, 0.000000, 0.161130},
		{20, 20, 1.96, 0.838870, 1.000000},
		{5, 10, 1.96, 0.236590, 0.763410},
		{1, 3, 1.96, 0.061490, 0.792345},
	}
	for _, c := range cases {
		lo, hi := WilsonCI(c.k, c.n, c.z)
		if !close(lo, c.lo, 1e-5) || !close(hi, c.hi, 1e-5) {
			t.Errorf("WilsonCI(%d,%d,%v) = [%.6f, %.6f], want [%.6f, %.6f]",
				c.k, c.n, c.z, lo, hi, c.lo, c.hi)
		}
	}
}

func TestWilsonCIEdges(t *testing.T) {
	if lo, hi := WilsonCI(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("no trials: [%v, %v], want [0, 1]", lo, hi)
	}
	if lo, hi := WilsonCI(3, 10, 0); lo != 0.3 || hi != 0.3 {
		t.Errorf("z=0: [%v, %v], want point estimate", lo, hi)
	}
	// The interval always contains the point estimate and stays in [0,1].
	for k := 0; k <= 25; k++ {
		lo, hi := WilsonCI(k, 25, 2.5758) // 99%
		p := float64(k) / 25
		if lo < 0 || hi > 1 || lo > p+1e-12 || hi < p-1e-12 {
			t.Errorf("k=%d: [%v, %v] does not bracket %v inside [0,1]", k, lo, hi, p)
		}
	}
}

// TestWilsonCIProperty fuzzes the interval over random — including
// out-of-range — inputs: for every (successes, trials) pair the bounds
// must stay in [0,1], bracket the clamped proportion, and never be NaN.
// Out-of-range successes reach this function when corrupted shard
// tallies are folded, and the bounds feed Converged; garbage in must
// still yield a defensible interval.
func TestWilsonCIProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5000; trial++ {
		trials := rng.Intn(2000) - 100    // sometimes negative or zero
		successes := rng.Intn(3000) - 500 // sometimes negative or > trials
		z := []float64{0, 1.0, 1.96, 2.5758}[rng.Intn(4)]
		lo, hi := WilsonCI(successes, trials, z)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			t.Fatalf("WilsonCI(%d,%d,%v) = NaN bounds", successes, trials, z)
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Fatalf("WilsonCI(%d,%d,%v) = [%v,%v] outside 0 <= lo <= hi <= 1",
				successes, trials, z, lo, hi)
		}
		if trials <= 0 {
			if lo != 0 || hi != 1 {
				t.Fatalf("WilsonCI(%d,%d,%v) = [%v,%v], want the vacuous [0,1]",
					successes, trials, z, lo, hi)
			}
			continue
		}
		// The interval brackets the proportion of the clamped inputs.
		k := successes
		if k < 0 {
			k = 0
		}
		if k > trials {
			k = trials
		}
		p := float64(k) / float64(trials)
		if lo > p+1e-12 || hi < p-1e-12 {
			t.Fatalf("WilsonCI(%d,%d,%v) = [%v,%v] does not bracket %v",
				successes, trials, z, lo, hi, p)
		}
		if hw := HalfWidth(successes, trials, z); math.IsNaN(hw) || hw < 0 || hw > 0.5 {
			t.Fatalf("HalfWidth(%d,%d,%v) = %v", successes, trials, z, hw)
		}
	}
}

func TestHalfWidth(t *testing.T) {
	// No trials: the vacuous [0,1] interval has half-width 0.5.
	if hw := HalfWidth(0, 0, 1.96); hw != 0.5 {
		t.Errorf("HalfWidth(0,0) = %v, want 0.5", hw)
	}
	// z=0 collapses to the point estimate: zero width.
	if hw := HalfWidth(3, 10, 0); hw != 0 {
		t.Errorf("HalfWidth(z=0) = %v, want 0", hw)
	}
	// Consistency with WilsonCI at a known value.
	lo, hi := WilsonCI(25, 100, 1.96)
	if hw := HalfWidth(25, 100, 1.96); !close(hw, (hi-lo)/2, 1e-15) {
		t.Errorf("HalfWidth = %v, want %v", hw, (hi-lo)/2)
	}
	// The statistic shrinks as the sample grows at fixed proportion; this
	// monotone narrowing is what makes the epsilon stop rule terminate.
	prev := math.Inf(1)
	for _, n := range []int{10, 40, 160, 640} {
		hw := HalfWidth(n/4, n, 1.96)
		if hw >= prev {
			t.Errorf("HalfWidth(n=%d) = %v, not narrower than %v", n, hw, prev)
		}
		prev = hw
	}
}

func TestPearsonSigns(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	down := []float64{10, 8, 6, 4, 2}
	if r, _ := Pearson(xs, up); !close(r, 1, 1e-12) {
		t.Errorf("r(up) = %v", r)
	}
	if r, _ := Pearson(xs, down); !close(r, -1, 1e-12) {
		t.Errorf("r(down) = %v", r)
	}
}

func TestLinFitResidualOrthogonalityQuick(t *testing.T) {
	// Least-squares residuals are orthogonal to x: sum(res*x) ~ 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		a, b, _, err := LinFit(xs, ys)
		if err != nil {
			return true
		}
		dot := 0.0
		for i := range xs {
			dot += (ys[i] - a*xs[i] - b) * xs[i]
		}
		return math.Abs(dot) < 1e-6*float64(n)*100*100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
