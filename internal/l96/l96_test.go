package l96

import (
	"math"
	"os"
	"testing"

	"climcompress/internal/stats"
)

func testConfig(members int) EnsembleConfig {
	// Scaled-down integration for unit tests; still long enough to diverge.
	return EnsembleConfig{
		Members:      members,
		Dt:           0.002,
		SpinupSteps:  1500,
		DivergeSteps: 12000,
		CalibSteps:   4000,
		Eps:          1e-14,
		Workers:      0,
	}
}

func TestDeterministic(t *testing.T) {
	p := DefaultParams()
	m := New(p)
	s1 := m.InitialState(0)
	s2 := m.InitialState(0)
	m.Run(s1, 0.002, 500)
	m2 := New(p)
	m2.Run(s2, 0.002, 500)
	for i := range s1.X {
		if s1.X[i] != s2.X[i] {
			t.Fatalf("non-deterministic trajectory at X[%d]: %v vs %v", i, s1.X[i], s2.X[i])
		}
	}
}

func TestStaysBounded(t *testing.T) {
	p := DefaultParams()
	m := New(p)
	s := m.InitialState(0)
	m.Run(s, 0.002, 20000)
	for i, x := range s.X {
		if math.IsNaN(x) || math.Abs(x) > 100 {
			t.Fatalf("trajectory blew up: X[%d] = %v", i, x)
		}
	}
	for i, y := range s.Y {
		if math.IsNaN(y) || math.Abs(y) > 100 {
			t.Fatalf("fast variables blew up: Y[%d] = %v", i, y)
		}
	}
}

func TestTinyPerturbationDiverges(t *testing.T) {
	p := DefaultParams()
	m := New(p)
	a := m.InitialState(0)
	b := m.InitialState(1e-14)
	m.Run(a, 0.002, 15000)
	m2 := New(p)
	m2.Run(b, 0.002, 15000)
	var dist float64
	for i := range a.X {
		d := a.X[i] - b.X[i]
		dist += d * d
	}
	dist = math.Sqrt(dist)
	if dist < 1 {
		t.Fatalf("1e-14 perturbation only diverged to distance %v after 30 time units; chaos broken?", dist)
	}
}

func TestSameICGivesSameState(t *testing.T) {
	p := DefaultParams()
	m := New(p)
	a := m.InitialState(0)
	m.Run(a, 0.002, 3000)
	k1 := a.Key()
	b := New(p).InitialState(0)
	New(p).Run(b, 0.002, 3000)
	if b.Key() != k1 {
		t.Fatal("identical trajectories produced different keys")
	}
	c := New(p).InitialState(1e-14)
	New(p).Run(c, 0.002, 3000)
	if c.Key() == k1 {
		t.Fatal("perturbed trajectory produced identical key")
	}
}

func TestEnsembleMembersDecorrelated(t *testing.T) {
	e := NewEnsemble(DefaultParams(), testConfig(8))
	if len(e.Members) != 8 {
		t.Fatalf("got %d members", len(e.Members))
	}
	// Pairwise correlation of slow states should be far from 1.
	for i := 0; i < len(e.Members); i++ {
		for j := i + 1; j < len(e.Members); j++ {
			rho := stats.Pearson(e.Members[i].X, e.Members[j].X)
			if rho > 0.9 {
				t.Fatalf("members %d,%d still correlated: ρ=%v", i, j, rho)
			}
		}
	}
	// Keys must be distinct.
	seen := map[uint64]bool{}
	for _, m := range e.Members {
		if seen[m.Key] {
			t.Fatal("duplicate member key")
		}
		seen[m.Key] = true
	}
}

func TestEnsembleWeightsStandardized(t *testing.T) {
	e := NewEnsemble(DefaultParams(), testConfig(12))
	var all []float64
	for m := range e.Members {
		w := e.Weights(m)
		if len(w) != DefaultParams().K {
			t.Fatalf("weights length %d", len(w))
		}
		all = append(all, w...)
	}
	// Standardized weights should be roughly zero-mean, unit-variance.
	mean := stats.Mean(all)
	std := stats.StdDev(all)
	if math.Abs(mean) > 0.5 {
		t.Fatalf("weights mean %v too far from 0", mean)
	}
	if std < 0.5 || std > 2 {
		t.Fatalf("weights std %v too far from 1", std)
	}
}

func TestEnsembleDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg1 := testConfig(5)
	cfg1.Workers = 1
	cfg4 := testConfig(5)
	cfg4.Workers = 4
	e1 := NewEnsemble(DefaultParams(), cfg1)
	e4 := NewEnsemble(DefaultParams(), cfg4)
	for m := range e1.Members {
		if e1.Members[m].Key != e4.Members[m].Key {
			t.Fatalf("member %d differs between worker counts", m)
		}
	}
}

// derivReference is the textbook modulo-indexed formulation; deriv's
// running-index rewrite must match it bit for bit.
func derivReference(p Params, s, out State) {
	K, J := p.K, p.J
	hcb := p.H * p.C / p.B
	for k := 0; k < K; k++ {
		km1 := (k - 1 + K) % K
		km2 := (k - 2 + K) % K
		kp1 := (k + 1) % K
		var ysum float64
		for j := 0; j < J; j++ {
			ysum += s.Y[k*J+j]
		}
		out.X[k] = -s.X[km1]*(s.X[km2]-s.X[kp1]) - s.X[k] + p.F - hcb*ysum
	}
	n := K * J
	cb := p.C * p.B
	for i := 0; i < n; i++ {
		ip1 := (i + 1) % n
		ip2 := (i + 2) % n
		im1 := (i - 1 + n) % n
		k := i / J
		out.Y[i] = -cb*s.Y[ip1]*(s.Y[ip2]-s.Y[im1]) - p.C*s.Y[i] + hcb*s.X[k]
	}
}

func TestDerivMatchesReference(t *testing.T) {
	for _, p := range []Params{
		DefaultParams(),
		{K: 7, J: 3, F: 8, H: 1, C: 10, B: 10},
		{K: 6, J: 2, F: 8, H: 1, C: 10, B: 10},
		{K: 9, J: 1, F: 8, H: 1, C: 10, B: 10}, // degenerate fallback path
		{K: 3, J: 1, F: 8, H: 1, C: 10, B: 10},
	} {
		m := New(p)
		s := m.InitialState(0)
		// March the state into the attractor a little so inputs are generic.
		m.Run(s, 0.002, 100)
		got := State{X: make([]float64, p.K), Y: make([]float64, p.K*p.J)}
		want := State{X: make([]float64, p.K), Y: make([]float64, p.K*p.J)}
		m.deriv(s, got)
		derivReference(p, s, want)
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("K=%d: X'[%d] = %x, reference %x", p.K, i, got.X[i], want.X[i])
			}
		}
		for i := range want.Y {
			if got.Y[i] != want.Y[i] {
				t.Fatalf("K=%d: Y'[%d] = %x, reference %x", p.K, i, got.Y[i], want.Y[i])
			}
		}
	}
}

// TestStepSteadyStateAllocs pins the RK4 step at zero allocations: its
// stage buffers live on the Model and are reused across steps.
func TestStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	m := New(DefaultParams())
	s := m.InitialState(0)
	if allocs := testing.AllocsPerRun(10, func() { m.Step(s, 0.002) }); allocs > 0 {
		t.Errorf("Step allocates %.1f/op in steady state, want 0", allocs)
	}
}

func BenchmarkStep(b *testing.B) {
	m := New(DefaultParams())
	s := m.InitialState(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(s, 0.002)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := DefaultParams()
	cfg := testConfig(4)
	e1, hit := LoadOrCompute(p, cfg, dir)
	if hit {
		t.Fatal("first load reported a cache hit")
	}
	e2, hit := LoadOrCompute(p, cfg, dir)
	if !hit {
		t.Fatal("second load missed the cache")
	}
	if e2.MeanX != e1.MeanX || e2.StdX != e1.StdX {
		t.Fatalf("calibration constants differ: %v/%v vs %v/%v", e2.MeanX, e2.StdX, e1.MeanX, e1.StdX)
	}
	for m := range e1.Members {
		if e2.Members[m].Key != e1.Members[m].Key {
			t.Fatalf("member %d key differs", m)
		}
		for i, x := range e1.Members[m].X {
			if e2.Members[m].X[i] != x {
				t.Fatalf("member %d X[%d] differs", m, i)
			}
		}
	}
	// A different configuration must not hit the same entry.
	other := cfg
	other.DivergeSteps++
	if _, hit := LoadOrCompute(p, other, dir); hit {
		t.Fatal("different config hit the cache")
	}
	// Workers is excluded from the key: the trajectories are identical.
	w4 := cfg
	w4.Workers = 4
	if _, hit := LoadOrCompute(p, w4, dir); !hit {
		t.Fatal("worker count should not affect the cache key")
	}
	// A corrupt file degrades to recomputation.
	path := cachePath(dir, CacheKey(p, cfg))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e3, hit := LoadOrCompute(p, cfg, dir)
	if hit {
		t.Fatal("corrupt cache reported a hit")
	}
	if e3.Members[1].Key != e1.Members[1].Key {
		t.Fatal("recomputed ensemble differs")
	}
}
