package main

import (
	"math"
	"sort"
)

// summary is the distribution record every metric carries in a run record:
// the hygiene ROADMAP aim 1 asks for (a number without its spread and its
// sample count is not a measurement).
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize computes min/quartiles/max. Quartiles use the exclusive method
// (position p·(n+1)), which is what Python's statistics.quantiles(v, n=4)
// returns — the driver's A/A check uses that function, so -compare must
// agree with it.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

// quantile reads the p-quantile off sorted s with the exclusive method,
// clamped to the sample range.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := math.Floor(pos)
	frac := pos - lo
	return s[int(lo)] + frac*(s[int(lo)+1]-s[int(lo)])
}

func median(v []float64) float64 { return summarize(v).Median }

// percentile is quantile over unsorted samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, p)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure -compare holds against a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
