package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"climcompress/internal/experiments"
)

// members is the ensemble size of every workload.
const members = 31

// batchSpec is one cold batch workload: a climatebench invocation over a
// seeded variable subset, run on an empty cache directory each sweep.
type batchSpec struct {
	experiment string // climatebench experiment name
	grid       string
	workers    int
	supervise  int    // shard children; 0 runs in one process
	family     string // seed stream for the variable subset; equal families share inputs
	mix        mix
	// nominal is the expected sweep wall time on the reference host. It
	// fixes how many sweeps a run makes (seconds / nominal), so the work
	// per run does not depend on how fast the code under test is.
	nominal time.Duration
}

var batchSpecs = map[string]batchSpec{
	"verify-cold": {
		experiment: "table6", grid: "small", workers: 2, family: "verify",
		mix: mix{threeD: 9, twoD: 10, fill: 1}, nominal: 9 * time.Second,
	},
	"errors-cold": {
		experiment: "fig1", grid: "bench", workers: 1, family: "errors",
		mix: mix{threeD: 16, twoD: 18, fill: 1}, nominal: 9 * time.Second,
	},
	"verify-sharded": {
		experiment: "table6", grid: "small", workers: 1, supervise: 2, family: "verify",
		mix: mix{threeD: 9, twoD: 10, fill: 1}, nominal: 9 * time.Second,
	},
}

// batchInputs are a seed's concrete inputs to a batch workload.
type batchInputs struct {
	spec  batchSpec
	vars  []string
	pseed uint64 // the program's -seed
	cells int    // (variable × variant) result cells per sweep
}

func newBatchInputs(spec batchSpec, seed uint64) (batchInputs, error) {
	vars, err := pickVariables(seed, spec.family, spec.mix)
	if err != nil {
		return batchInputs{}, err
	}
	return batchInputs{spec: spec, vars: vars, pseed: programSeed(seed),
		cells: len(vars) * len(experiments.Variants())}, nil
}

// args returns the climatebench arguments of one run over cacheDir.
// single forces a plain one-process run (the sharded workload's reference).
func (in batchInputs) args(cacheDir string, single bool) []string {
	workers, supervise := in.spec.workers, in.spec.supervise
	if single {
		workers, supervise = batchSpecs["verify-cold"].workers, 0
	}
	a := []string{
		"-grid", in.spec.grid, "-members", strconv.Itoa(members),
		"-workers", strconv.Itoa(workers), "-seed", strconv.FormatUint(in.pseed, 10),
		"-vars", strings.Join(in.vars, ","), "-cachedir", cacheDir, "-q",
	}
	if supervise > 0 {
		a = append(a, "-supervise", strconv.Itoa(supervise))
	}
	return append(a, in.spec.experiment)
}

// warmRenders is how many times a run re-renders from its warm cache; the
// median is the run's setup_s.
const warmRenders = 9

// sweep is one cold batch run.
type sweep struct {
	res procResult
	err error
}

// runBatch measures a cold batch workload: seconds/nominal cold sweeps,
// each on a fresh cache directory, then warmRenders re-renders of the
// last sweep's cache. Every output must be byte-identical: sweep to
// sweep, cold to warm, and for the sharded workload sharded to a plain
// single-process run of the same inputs.
func runBatch(e *env, spec batchSpec) (*outcome, error) {
	in, err := newBatchInputs(spec, e.seed)
	if err != nil {
		return nil, err
	}
	nsweeps := int(time.Duration(e.seconds) * time.Second / spec.nominal)
	if nsweeps < 1 {
		nsweeps = 1
	}
	o := newOutcome()
	o.note("inputs: %s grid, %d members, %d variables (%s), program -seed %d, %d sweeps",
		spec.grid, members, len(in.vars), strings.Join(in.vars, ","), in.pseed, nsweeps)
	sweeps, warm, ref, err := batchPasses(e, in, nsweeps)
	if err != nil {
		return nil, err
	}
	judgeBatch(o, in, sweeps, warm, ref)
	reportBatch(o, in, sweeps, warm)
	return o, nil
}

// batchPasses runs the untraced passes of a batch workload. A program
// failure is recorded in the sweep, not returned: it counts against
// failed_share. Only a broken environment (no scratch space) is an error.
func batchPasses(e *env, in batchInputs, nsweeps int) (sweeps []sweep, warm []procResult, ref []byte, err error) {
	bin := filepath.Join(e.bin, "climatebench")
	var lastDir string
	for i := 0; i < nsweeps; i++ {
		dir, err := e.scratch(fmt.Sprintf("cold-%d", i))
		if err != nil {
			return nil, nil, nil, err
		}
		res, rerr := runProgram(e.ctx, bin, in.args(dir, false)...)
		sweeps = append(sweeps, sweep{res: res, err: rerr})
		if rerr == nil {
			if lastDir != "" {
				os.RemoveAll(lastDir)
			}
			lastDir = dir
		}
	}
	if in.spec.supervise > 0 {
		dir, err := e.scratch("reference")
		if err != nil {
			return nil, nil, nil, err
		}
		res, rerr := runProgram(e.ctx, bin, in.args(dir, true)...)
		if rerr == nil {
			ref = res.stdout
		}
		os.RemoveAll(dir)
	}
	if lastDir != "" {
		for i := 0; i < warmRenders; i++ {
			res, rerr := runProgram(e.ctx, bin, in.args(lastDir, false)...)
			if rerr != nil {
				res.stdout = nil
			}
			warm = append(warm, res)
		}
	}
	return sweeps, warm, ref, nil
}

// judgeBatch applies the output checks. Sweeps that disagree with each
// other, with a warm re-render, or (sharded) with the single-process
// reference fail all their cells: no single output can be trusted then.
func judgeBatch(o *outcome, in batchInputs, sweeps []sweep, warm []procResult, ref []byte) {
	o.attempted = int64(in.cells * len(sweeps))
	var want []byte
	consistent := true
	for _, s := range sweeps {
		if s.err != nil {
			o.failed += int64(in.cells)
			o.note("sweep failed: %v", s.err)
			continue
		}
		if want == nil {
			want = s.res.stdout
		} else if !bytes.Equal(want, s.res.stdout) {
			consistent = false
		}
	}
	if want != nil {
		if len(warm) < warmRenders {
			consistent = false
		}
		for _, w := range warm {
			if !bytes.Equal(want, w.stdout) {
				consistent = false
				o.note("warm re-render differs from the cold output")
			}
		}
		if in.spec.supervise > 0 && !bytes.Equal(want, ref) {
			consistent = false
			o.note("sharded output differs from the single-process reference")
		}
		o.note("output sha256 %s", digest(want))
	}
	if !consistent {
		o.failed = o.attempted
		o.note("output check failed: every cell of the run counts as failed")
	}
}

// reportBatch derives the end-to-end metrics, each a median over the
// run's sweeps (setup_s over its warm re-renders).
func reportBatch(o *outcome, in batchInputs, sweeps []sweep, warm []procResult) {
	var rates, cpus, rss []float64
	for _, s := range sweeps {
		if s.err != nil {
			continue
		}
		rates = append(rates, float64(in.cells)/s.res.wall.Seconds())
		cpus = append(cpus, s.res.cpu.Seconds())
		rss = append(rss, float64(s.res.maxRSS)/(1<<20))
	}
	// setup_s is the CPU time of a warm re-render: the set-up work every
	// invocation pays before it computes anything.
	var setups, setupWalls []float64
	for _, w := range warm {
		if w.stdout != nil {
			setups = append(setups, w.cpu.Seconds())
			setupWalls = append(setupWalls, w.wall.Seconds())
		}
	}
	o.note("warm re-render over %d runs: median %.4fs CPU, %.4fs wall", len(setups), median(setups), median(setupWalls))
	n := len(rates)
	o.set("cells_per_s", median(rates), n)
	o.set("cpu_s", median(cpus), n)
	o.set("setup_s", median(setups), len(setups))
	o.set("peak_rss_mib", median(rss), n)
}
