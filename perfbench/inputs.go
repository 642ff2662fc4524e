package main

import (
	"fmt"
	"math"
	"sort"

	"climcompress/internal/experiments"
	"climcompress/internal/varcatalog"
)

// rng is splitmix64: a tiny, fully specified generator, so the inputs a
// seed produces never depend on the Go release's math/rand streams.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(s []string) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// mix is the variable mix of a batch workload. The counts are fixed per
// workload and only the members of each class vary with the seed, so the
// work per sweep stays comparable from seed to seed: a 3-D variable costs
// NLev times a 2-D one.
type mix struct {
	threeD, twoD, fill int
}

// pickVariables draws a seeded variable subset: mix.threeD 3-D variables,
// mix.twoD 2-D variables without fill values and mix.fill fill-valued
// ones, returned in catalog order.
func pickVariables(seed uint64, stream string, m mix) ([]string, error) {
	var three, two, fill []string
	for _, s := range varcatalog.Default() {
		switch {
		case s.HasFill:
			fill = append(fill, s.Name)
		case s.ThreeD:
			three = append(three, s.Name)
		default:
			two = append(two, s.Name)
		}
	}
	if m.threeD > len(three) || m.twoD > len(two) || m.fill > len(fill) {
		return nil, fmt.Errorf("variable mix %+v exceeds the catalog (%d 3-D, %d 2-D, %d fill)",
			m, len(three), len(two), len(fill))
	}
	r := newRNG(seed, stream)
	want := map[string]bool{}
	for _, class := range []struct {
		names []string
		n     int
	}{{three, m.threeD}, {two, m.twoD}, {fill, m.fill}} {
		r.shuffle(class.names)
		for _, n := range class.names[:class.n] {
			want[n] = true
		}
	}
	var out []string
	for _, s := range varcatalog.Default() {
		if want[s.Name] {
			out = append(out, s.Name)
		}
	}
	return out, nil
}

// programSeed derives the program's -seed (test-member selection) from the
// benchmark seed.
func programSeed(seed uint64) uint64 { return newRNG(seed, "program-seed").next()%100000 + 1 }

// pair is one (variable, variant) verdict key of the serving workload.
type pair struct{ variable, variant string }

// catalogPairs lists every (variable, variant) pair of the full catalog in
// catalog × variant order: the daemon's whole key space.
func catalogPairs() []pair {
	var out []pair
	for _, s := range varcatalog.Default() {
		for _, v := range experiments.Variants() {
			out = append(out, pair{s.Name, v})
		}
	}
	return out
}

// zipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-s by inverse
// transform over the precomputed cumulative distribution.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// zipfExponent is the popularity skew of the serving workload.
const zipfExponent = 1.1

// requestSequence returns n request indices into pairs: Zipf popularity
// over the pairs, with the popularity order itself a seeded permutation,
// so each seed has its own hot set.
func requestSequence(seed uint64, npairs, n int) []int {
	r := newRNG(seed, "zipf-order")
	order := make([]int, npairs)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	z := newZipf(npairs, zipfExponent)
	draws := newRNG(seed, "zipf-draws")
	out := make([]int, n)
	for i := range out {
		out[i] = order[z.draw(draws)]
	}
	return out
}

// touchAccounting predicts the serving cache outcome of a request
// sequence: the first request for each pair finds no rendered response and
// reads the verdict record from the store; every repeat is a
// response-cache hit.
func touchAccounting(seq []int) (storeHits, respHits int) {
	seen := make(map[int]bool)
	for _, p := range seq {
		if seen[p] {
			respHits++
			continue
		}
		seen[p] = true
		storeHits++
	}
	return storeHits, respHits
}

// samplePairs picks up to k distinct pairs from those seq touches, in
// seeded order.
func samplePairs(seed uint64, seq []int, k int) []int {
	seen := make(map[int]bool)
	var touched []int
	for _, p := range seq {
		if !seen[p] {
			seen[p] = true
			touched = append(touched, p)
		}
	}
	sort.Ints(touched)
	r := newRNG(seed, "body-sample")
	for i := len(touched) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		touched[i], touched[j] = touched[j], touched[i]
	}
	if len(touched) > k {
		touched = touched[:k]
	}
	return touched
}
