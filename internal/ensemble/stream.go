// Streaming ensemble build: members flow generator → accumulators in chunks
// of O(workers) instead of being materialized all at once, so peak resident
// member fields per variable drop from the ensemble size (101 at paper
// scale) to a small multiple of the worker-pool width. Per-point aggregates
// fold members in index order regardless of chunking, so every statistic is
// independent of the chunk size. Build runs the same code over fields the
// caller already holds.

package ensemble

import (
	"fmt"

	"climcompress/internal/field"
	"climcompress/internal/par"
	"climcompress/internal/stats"
)

// ReleasingSource is a Source that wants its fields handed back when a
// consumer is done with them — e.g. to return pooled buffers or track
// residency. Sources without it get the default field.Release.
type ReleasingSource interface {
	Source
	Release(f *field.Field)
}

// releaseField hands a consumed field back to its source (if it cares) or
// to the shared scratch pool.
func releaseField(src Source, f *field.Field) {
	if rs, ok := src.(ReleasingSource); ok {
		rs.Release(f)
		return
	}
	f.Release()
}

// chunkSize is the streaming chunk: the number of member fields resident at
// once per pass.
func chunkSize() int {
	if w := par.Width(); w > 1 {
		return w
	}
	return 1
}

// BuildStream computes the ensemble statistics of one variable without ever
// holding more than O(workers) member fields. Two passes over the (assumed
// deterministic) source:
//
//	pass 1 — chunks of members are generated in parallel, folded into the
//	per-point moments/extremes in member order, summarized, and released;
//	pass 2 — each member is regenerated to compute its RMSZ (which needs the
//	complete moments) and E_nmax, then released.
//
// The returned VarStats does not retain member data; consumers use
// AcquireOriginal, which regenerates on demand.
func BuildStream(src Source, varIdx int) (*VarStats, error) {
	return buildStream(src, varIdx, -1, nil)
}

// BuildStreamWithScoresFunc is BuildStream with the second pass
// short-circuited by previously computed per-member scores (e.g. decoded
// from an artifact cache keyed on the same inputs): score(m) returns member
// m's (RMSZ, E_nmax) pair, and nscores declares how many members it covers.
// It lets callers feed scores straight from a zero-copy cache record view
// without materializing slices. When nscores differs from Members(), score
// is never called and pass 2 runs normally.
func BuildStreamWithScoresFunc(src Source, varIdx, nscores int, score func(m int) (float64, float64)) (*VarStats, error) {
	return buildStream(src, varIdx, nscores, score)
}

func buildStream(src Source, varIdx, nscores int, score func(m int) (float64, float64)) (*VarStats, error) {
	nm := src.Members()
	if nm < 3 {
		return nil, fmt.Errorf("ensemble: need at least 3 members, got %d", nm)
	}
	chunk := chunkSize()
	var vs *VarStats
	var err error
	for base := 0; base < nm && err == nil; base += chunk {
		end := base + chunk
		if end > nm {
			end = nm
		}
		fields := make([]*field.Field, end-base)
		par.Each(len(fields), func(j int) error {
			fields[j] = src.Field(varIdx, base+j)
			return nil
		})
		if base == 0 {
			vs = newStreamStats(fields[0], src, varIdx, nm)
		}
		data := make([][]float32, len(fields))
		for j, f := range fields {
			if f.Len() != vs.NPoints {
				err = fmt.Errorf("ensemble: member %d has %d points, want %d", base+j, f.Len(), vs.NPoints)
				break
			}
			data[j] = f.Data
		}
		if err == nil {
			// Per-member summaries for the chunk, independent across members.
			par.Each(len(fields), func(j int) error {
				m := base + j
				s := fields[j].Summarize()
				vs.RangePerMember[m] = s.Range
				vs.GlobalMean[m] = fields[j].GlobalMean()
				vs.ValidMean[m] = MaskedMean(fields[j].Data, vs.FillMask)
				return nil
			})
			// Per-point aggregates: extremes init on the first chunk only,
			// then the chunk's members fold in index order.
			first := base == 0
			par.Ranges(vs.NPoints, pointGrain, func(lo, hi int) {
				if first {
					vs.initExtremes(lo, hi)
				}
				vs.foldRange(data, base, lo, hi)
			})
		}
		for _, f := range fields {
			releaseField(src, f)
		}
	}
	if err != nil {
		return nil, err
	}

	if nscores == nm && score != nil {
		for m := 0; m < nm; m++ {
			vs.RMSZ[m], vs.Enmax[m] = score(m)
		}
		return vs, nil
	}

	// Pass 2: RMSZ (needs the complete moments) and E_nmax per member, each
	// regenerated, scored, released. Residency stays O(workers) because the
	// pool bounds concurrent fn invocations.
	par.Each(nm, func(m int) error {
		f := src.Field(varIdx, m)
		vs.RMSZ[m] = scoreRMSZ(vs.Mom, f.Data, f.Data, vs.FillMask)
		vs.Enmax[m] = vs.enmaxData(m, f.Data)
		releaseField(src, f)
		return nil
	})
	return vs, nil
}

// newStreamStats allocates the accumulator set for a streamed build, taking
// variable metadata (name, fill handling, size) from the first member.
func newStreamStats(f0 *field.Field, src Source, varIdx, nm int) *VarStats {
	n := f0.Len()
	vs := &VarStats{
		Name:    f0.Name,
		NPoints: n,
		HasFill: f0.HasFill,
		Fill:    f0.Fill,
		Mom:     stats.NewMoments(n),
		min1:    make([]float32, n),
		min2:    make([]float32, n),
		max1:    make([]float32, n),
		max2:    make([]float32, n),
		min1m:   make([]int32, n),
		max1m:   make([]int32, n),

		src:    src,
		varIdx: varIdx,
		nm:     nm,
	}
	vs.allocPerMember()
	vs.FillMask = make([]bool, n)
	if vs.HasFill {
		for i := 0; i < n; i++ {
			//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
			vs.FillMask[i] = f0.Data[i] == f0.Fill
		}
	}
	return vs
}
