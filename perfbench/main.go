// Command perfbench is the repository's benchmark: it runs one workload
// of the compression-evaluation pipeline against binaries built from the
// checkout, checks every output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of an in-process traced run). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 20 --trace 0
//
// NOTES.md explains the workloads, the metrics and what stays unmeasured.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads lists every workload in the order -workload all runs them.
var workloads = []string{"verify-cold", "errors-cold", "serve-zipf", "verify-sharded"}

// deadline bounds one workload run: past it every program the run started
// is killed with its process group and the run fails.
const deadline = 170 * time.Second

// env is one invocation's settings and scratch space.
type env struct {
	ctx     context.Context
	bin     string // directory holding climatebench and climatebenchd
	work    string // this run's scratch directory
	cache   string // persistent build-side directory (serving fixtures)
	seed    uint64
	seconds int
}

// scratch creates an empty directory under the run's scratch space.
func (e *env) scratch(name string) (string, error) {
	dir := filepath.Join(e.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	o.samples[name] = n
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: picks variable subsets, the program's -seed and the request sequence")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced in-process pass and reports per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory with the climatebench and climatebenchd binaries")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !known(n) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", n, strings.Join(workloads, ", "))
			return 2
		}
	}
	for _, b := range []string{"climatebench", "climatebenchd"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build the program first; run.sh does)\n", err)
			return 1
		}
	}
	prov := provenance(*bin, *seed)
	all := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, n := range names {
		o, err := runOne(n, *bin, *work, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		res := printOutcome(n, *trace == 1, o, prov)
		if len(names) == 1 {
			all = res
			break
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[n+"/"+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runOne runs one workload in its own scratch directory, removed after.
func runOne(name, bin, work string, seed uint64, seconds int, traced bool) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	absBin, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	absWork, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(absWork, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{ctx: ctx, bin: absBin, work: dir, cache: filepath.Join(absWork, "fixtures"), seed: seed, seconds: seconds}
	switch {
	case traced && name == "serve-zipf":
		return runServeTraced(e)
	case traced:
		return runBatchTraced(e, name, batchSpecs[name])
	case name == "serve-zipf":
		return runServe(e)
	default:
		return runBatch(e, batchSpecs[name])
	}
}

// printOutcome prints the human-readable report (each metric with its unit
// and sample count) and returns the machine-readable result. Metrics the
// run could not measure print as NaN and are left out of the JSON.
func printOutcome(name string, traced bool, o *outcome, prov map[string]string) resultJSON {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultJSON{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	fmt.Printf("== %s (trace=%v) ==\n", name, traced)
	for _, n := range o.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			v = math.NaN()
		}
		fmt.Printf("  %-28s %14.6g %-8s n=%d\n", d.name, v, d.unit, o.samples[d.name])
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		} else {
			res.Correct = false
		}
	}
	if !traced {
		for _, d := range printedOnly {
			if v, ok := o.metrics[d.name]; ok {
				fmt.Printf("  %-28s %14.6g %-8s n=%d (not gated)\n", d.name, v, d.unit, o.samples[d.name])
			}
		}
	}
	share := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("  %-28s %14.6g %-8s n=%d\n", "failed_share", share, "ratio", res.Attempted)
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var pv []string
	for _, k := range keys {
		pv = append(pv, k+"="+prov[k])
	}
	fmt.Printf("  provenance: %s\n", strings.Join(pv, " "))
	return res
}
