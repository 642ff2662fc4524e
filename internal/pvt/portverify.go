package pvt

import (
	"fmt"
	"math"

	"climcompress/internal/ensemble"
	"climcompress/internal/stats"
)

// The CESM-PVT was built to answer a question older than compression
// (§4.3): after porting CESM to a new machine — or changing compilers,
// optimization flags, or the order of parallel reductions — results are no
// longer bit-for-bit; are they climate-changing? The procedure: run a few
// simulations on the new machine and check that (a) their global means show
// no range shift against the trusted ensemble and (b) their RMSZ scores
// fall within the trusted ensemble's RMSZ distribution. PortVerify
// implements exactly that; the compression verification elsewhere in this
// package is the paper's adaptation of it.

// PortRun is one new-machine run's evidence.
type PortRun struct {
	RMSZ       float64
	GlobalMean float64
	RMSZOK     bool
	MeanOK     bool
}

// PortResult is the verdict for one variable.
type PortResult struct {
	Variable string
	Runs     []PortRun
	RMSZBox  stats.Boxplot // trusted ensemble's RMSZ distribution
	MeanBox  stats.Boxplot // trusted ensemble's global-mean distribution
	// Pass is the strict verdict: every run inside the distributions. A
	// statistically identical run still lands outside a finite ensemble's
	// range with probability ≈ 2/(members+1), so with several runs the
	// strict rule false-alarms at a known rate.
	Pass bool
	// PassMajority requires more than half the runs to pass — the
	// aggregation NCAR's follow-up tooling moved to for exactly this
	// false-alarm reason.
	PassMajority bool
}

// PortVerify scores new-machine runs of one variable against the trusted
// ensemble. Unlike the leave-one-out scores used for compression (the new
// run is not a member of E), the Z-scores here use the full-ensemble
// per-point mean and standard deviation.
func PortVerify(vs *ensemble.VarStats, newRuns [][]float32) (PortResult, error) {
	res := PortResult{
		Variable: vs.Name,
		RMSZBox:  vs.RMSZBox(),
		Pass:     true,
	}
	if len(newRuns) == 0 {
		return res, fmt.Errorf("pvt: no new runs supplied")
	}
	// Trusted ensemble's global means, computed with the same statistic
	// applied to the new runs (unweighted valid-point mean, precomputed by
	// the build).
	gm := vs.ValidMean
	res.MeanBox = stats.NewBoxplot(gm)
	// Slack mirrors the compression RMSZ test: a run statistically
	// identical to the ensemble should not fail by an epsilon at the
	// distribution's edge.
	rmszSlack := 0.01 * res.RMSZBox.Range()
	// The range-shift screen uses a z-test against the trusted global-mean
	// distribution rather than a strict range check: the range of a finite
	// ensemble rejects ≈ 2/(members+1) of statistically identical runs,
	// while |z| ≤ 4 keeps false alarms negligible and still catches any
	// real shift.
	gmMean := stats.Mean(gm)
	gmStd := stats.StdDev(gm)
	const meanZLimit = 4.0
	for i, data := range newRuns {
		if len(data) != vs.NPoints {
			return res, fmt.Errorf("pvt: new run %d has %d points, want %d", i, len(data), vs.NPoints)
		}
		var sum float64
		var cnt int
		var meanSum float64
		var meanCnt int
		for p, v := range data {
			if vs.FillMask[p] {
				continue
			}
			loo := vs.Mom.At(p)
			if loo.N < 2 {
				continue
			}
			n := float64(loo.N)
			mean := loo.Sum / n
			variance := (loo.SumSq - loo.Sum*mean) / (n - 1)
			if variance <= 0 {
				continue
			}
			z := (float64(v) - mean) / math.Sqrt(variance)
			sum += z * z
			cnt++
			meanSum += float64(v)
			meanCnt++
		}
		run := PortRun{RMSZ: math.NaN(), GlobalMean: math.NaN()}
		if cnt > 0 {
			run.RMSZ = math.Sqrt(sum / float64(cnt))
		}
		if meanCnt > 0 {
			run.GlobalMean = meanSum / float64(meanCnt)
		}
		run.RMSZOK = !math.IsNaN(run.RMSZ) &&
			run.RMSZ >= res.RMSZBox.Min-rmszSlack && run.RMSZ <= res.RMSZBox.Max+rmszSlack
		switch {
		case math.IsNaN(run.GlobalMean) || math.IsNaN(gmStd):
			run.MeanOK = false
		case gmStd == 0:
			//lint:floateq zero ensemble spread demands bit-exact agreement; any tolerance would defeat the port check
			run.MeanOK = run.GlobalMean == gmMean
		default:
			run.MeanOK = math.Abs(run.GlobalMean-gmMean)/gmStd <= meanZLimit
		}
		if !run.RMSZOK || !run.MeanOK {
			res.Pass = false
		}
		res.Runs = append(res.Runs, run)
	}
	good := 0
	for _, run := range res.Runs {
		if run.RMSZOK && run.MeanOK {
			good++
		}
	}
	res.PassMajority = good*2 > len(res.Runs)
	return res, nil
}
