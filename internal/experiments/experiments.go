// Package experiments reproduces every table and figure of the paper's
// evaluation section (§5). Each RunnerTableN / RunnerFigN method generates
// the corresponding result from the synthetic CESM substrate and renders it
// as text; cmd/climatebench exposes them as subcommands and bench_test.go
// wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"climcompress/internal/artifact"
	"climcompress/internal/compress"
	_ "climcompress/internal/compress/apax"
	_ "climcompress/internal/compress/fpzip"
	"climcompress/internal/compress/grib2"
	_ "climcompress/internal/compress/isabela"
	_ "climcompress/internal/compress/nclossless"
	_ "climcompress/internal/compress/tsblob"
	"climcompress/internal/ensemble"
	"climcompress/internal/field"
	"climcompress/internal/grid"
	"climcompress/internal/l96"
	"climcompress/internal/model"
	"climcompress/internal/par"
	"climcompress/internal/pvt"
	"climcompress/internal/varcatalog"
)

// Config parameterizes an experiment run.
type Config struct {
	Grid    *grid.Grid
	Members int // ensemble size (paper: 101)
	Workers int // parallel workers (GOMAXPROCS when 0)
	Seed    uint64
	// Variables restricts the catalog to the named variables (nil = all
	// 170). The featured four are always retained if present.
	Variables []string
	Thr       pvt.Thresholds
	// L96 scales the chaotic-core integration; zero values use defaults.
	L96 l96.EnsembleConfig
	// L96Source, when set, supplies the chaotic-core ensemble instead of
	// integrating one (e.g. a closure shared across runners that loads the
	// on-disk cache). It is consulted lazily, on the first experiment that
	// needs members.
	L96Source func() *l96.Ensemble
	// Cache, when non-nil, persists expensive artifacts — member fields,
	// ensemble scoring vectors, error-matrix cells, verification outcomes —
	// in a content-addressed store, making warm re-runs pure reductions over
	// cached records and incremental re-runs (one codec changed) recompute
	// only that codec's column. Nil disables all persistence.
	Cache *artifact.Store
	// FieldCacheMembers bounds how many leading member fields per variable
	// are persisted (they dominate disk: members × gridsize × 4 bytes).
	// 0 means the default of 1 (member 0, which feeds the error tables);
	// negative disables field caching entirely.
	FieldCacheMembers int
}

// DefaultConfig returns the paper-scale configuration on the given grid.
func DefaultConfig(g *grid.Grid) Config {
	return Config{
		Grid:    g,
		Members: 101,
		Seed:    2014, // HPDC'14
		Thr:     pvt.Default(),
	}
}

// Variants returns the evaluated variants in table order, by registry
// name: the paper's nine lossy study variants plus the repo-native
// lossless tsblob family, which runs through the same four-test
// verification methodology.
func Variants() []string {
	return []string{
		"grib2", "apax-2", "apax-4", "apax-5",
		"fpzip-24", "fpzip-16",
		"isa-0.1", "isa-0.5", "isa-1",
		"tsblob",
	}
}

// Label maps a registry name to the paper's display label.
func Label(name string) string {
	switch name {
	case "grib2":
		return "GRIB2"
	case "apax-2":
		return "APAX-2"
	case "apax-4":
		return "APAX-4"
	case "apax-5":
		return "APAX-5"
	case "fpzip-24":
		return "fpzip-24"
	case "fpzip-16":
		return "fpzip-16"
	case "isa-0.1":
		return "ISA-0.1"
	case "isa-0.5":
		return "ISA-0.5"
	case "isa-1":
		return "ISA-1.0"
	case "nc":
		return "NetCDF-4"
	case "fpzip-32":
		return "fpzip-32"
	case "tsblob":
		return "tsblob"
	}
	return name
}

// Runner owns the lazily built substrate shared by the experiments.
type Runner struct {
	Cfg     Config
	Catalog []varcatalog.Spec

	l96Once sync.Once
	l96Ens  *l96.Ensemble

	genOnce sync.Once
	gen     *model.Generator

	subOnce sync.Once
	subID   string // substrate content digest (cache key component)

	mu       sync.Mutex
	varStats map[string]*varStatsEntry
	table6   *Table6Result
}

// varStatsEntry is the per-variable compute-once slot of the VarStatsFor
// cache: concurrent callers for the same variable share one Build instead of
// racing to do the work twice.
type varStatsEntry struct {
	once sync.Once
	vs   *ensemble.VarStats
	err  error
}

// NewRunner builds a Runner. sharedL96 may carry a pre-integrated chaotic
// ensemble (it is grid-independent) to share across runners; pass nil to
// integrate on first use.
func NewRunner(cfg Config, sharedL96 *l96.Ensemble) *Runner {
	if cfg.Grid == nil {
		cfg.Grid = grid.Bench()
	}
	if cfg.Members == 0 {
		cfg.Members = 101
	}
	if cfg.Thr == (pvt.Thresholds{}) {
		cfg.Thr = pvt.Default()
	}
	r := &Runner{
		Cfg:      cfg,
		Catalog:  selectCatalog(cfg.Variables),
		varStats: make(map[string]*varStatsEntry),
	}
	if sharedL96 != nil {
		r.l96Ens = sharedL96
		r.l96Once.Do(func() {})
	}
	return r
}

// selectCatalog restricts the catalog to the requested variables.
func selectCatalog(names []string) []varcatalog.Spec {
	full := varcatalog.Default()
	if len(names) == 0 {
		return full
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []varcatalog.Spec
	for _, s := range full {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// L96 returns the (lazily integrated) chaotic-core ensemble.
func (r *Runner) L96() *l96.Ensemble {
	r.l96Once.Do(func() {
		if r.Cfg.L96Source != nil {
			r.l96Ens = r.Cfg.L96Source()
			return
		}
		cfg := r.Cfg.L96
		if cfg.Members == 0 {
			cfg = l96.DefaultEnsembleConfig(r.Cfg.Members)
		}
		cfg.Members = r.Cfg.Members
		r.l96Ens = l96.NewEnsemble(l96.DefaultParams(), cfg)
	})
	return r.l96Ens
}

// Generator returns the (lazily built) synthetic field generator.
func (r *Runner) Generator() *model.Generator {
	r.genOnce.Do(func() {
		r.gen = model.NewGenerator(r.Cfg.Grid, r.Catalog, r.L96())
	})
	return r.gen
}

// workers resolves the configured parallelism.
func (r *Runner) workers() int {
	if r.Cfg.Workers > 0 {
		return r.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shapeFor derives the codec shape of a variable on the runner's grid.
func (r *Runner) shapeFor(spec varcatalog.Spec) compress.Shape {
	g := r.Cfg.Grid
	nlev := 1
	if spec.ThreeD {
		nlev = g.NLev
	}
	return compress.Shape{NLev: nlev, NLat: g.NLat, NLon: g.NLon}
}

// varIndex finds a variable in the runner's catalog.
func (r *Runner) varIndex(name string) (int, error) {
	_, idx, ok := varcatalog.ByName(r.Catalog, name)
	if !ok {
		return -1, fmt.Errorf("experiments: variable %q not in catalog", name)
	}
	return idx, nil
}

// VarStatsFor builds (and caches in-process) the ensemble statistics of one
// variable. Concurrent callers for the same variable block on a single
// build rather than duplicating the member generation. Statistics are built
// through the streaming pipeline: member fields flow through the worker
// pool in chunks and are released immediately, so peak residency is
// O(workers) fields rather than O(members).
func (r *Runner) VarStatsFor(name string) (*ensemble.VarStats, error) {
	r.mu.Lock()
	e, ok := r.varStats[name]
	if !ok {
		e = &varStatsEntry{}
		r.varStats[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		idx, err := r.varIndex(name)
		if err != nil {
			e.err = err
			return
		}
		e.vs, e.err = r.streamStats(idx)
	})
	return e.vs, e.err
}

// grib2AbsTarget derives the absolute-error target for GRIB2's decimal
// scale factor. With ensemble statistics available, the paper's procedure
// applies: the RMSZ ensemble test bounds the tolerable quantization noise
// to a fraction of the per-point ensemble spread. Without them (the plain
// §5.2 error tables), the target falls back to a fraction of the
// variable's range.
func grib2AbsTarget(vs *ensemble.VarStats, fieldRange float64) float64 {
	if vs != nil {
		if s := vs.SigmaMedian(); !math.IsNaN(s) && s > 0 {
			return 0.3 * s
		}
	}
	return 1e-4 * fieldRange
}

// CodecFor instantiates a study variant for a variable. GRIB2 is tuned per
// variable (decimal scale factor, native fill support); the other codecs
// are wrapped with fill masking when the variable has special values.
func (r *Runner) CodecFor(variant string, spec varcatalog.Spec, vs *ensemble.VarStats, fieldRange float64) (compress.Codec, error) {
	if variant == "grib2" {
		d := grib2.DForTarget(grib2AbsTarget(vs, fieldRange))
		c := grib2.New(d)
		if spec.HasFill {
			c.HasFill = true
			c.Fill = field.DefaultFill
		}
		return c, nil
	}
	c, err := compress.New(variant)
	if err != nil {
		return nil, err
	}
	if spec.HasFill {
		c = compress.WithFill(c, field.DefaultFill)
	}
	return c, nil
}

// forEachVar runs fn over catalog indices, fanning out on the shared worker
// pool (bounded by the configured worker count). Every index is attempted;
// the first error in index order is returned.
func (r *Runner) forEachVar(indices []int, fn func(idx int) error) error {
	errs := make([]error, len(indices))
	par.EachLimit(len(indices), r.workers(), func(k int) error {
		errs[k] = fn(indices[k])
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allIndices returns 0..len(catalog)-1.
func (r *Runner) allIndices() []int {
	out := make([]int, len(r.Catalog))
	for i := range out {
		out[i] = i
	}
	return out
}

// sortedKeys returns map keys sorted for deterministic rendering.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
