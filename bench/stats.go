package main

import (
	"cmp"
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending-sorted sample: the smallest value with at least q of the sample
// at or below it. Nearest-rank never interpolates, so a reported latency is
// always one a request actually saw.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median returns the middle value (mean of the middle two for even counts)
// without reordering its argument.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method) — the rule the acceptance driver applies to ten runs —
// so -selfcheck judges spreads exactly as the driver will.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s), median(s)
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// span is one benchmark-side trace interval. Times are nanoseconds since
// the traced phase began; Parent is a span ID (0 = root) and Req ties the
// spans of one request together.
type span struct {
	ID, Parent, Req int32
	Name            uint8
	Start, End      int64
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its direct children — overlapping children (the two
// concurrent shard exchanges of a scatter) count once, and a child running
// past its parent's end is clipped to the parent.
func selfTimes(spans []span) map[int32]int64 {
	byID := make(map[int32]span, len(spans))
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			if lo, hi := max(s.Start, p.Start), min(s.End, p.End); hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, end := int64(0), s.Start
		for _, c := range iv {
			if c[1] > end {
				covered += c[1] - max(c[0], end)
				end = c[1]
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}
