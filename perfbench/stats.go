package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailLadder lists the percentiles the tail of a timing may be reported
// at, highest first. A timing's tail is the highest of these with at least
// minBeyond samples strictly above it, so a tail is never an extreme
// read from a handful of samples.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

const minBeyond = 10

// quantile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks, the definition Python's
// statistics.quantiles(method="inclusive") and numpy's default use.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond is how many of n samples lie above the p-th percentile, with
// the rounding error of 100-p removed.
func beyond(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)/100*1e6) / 1e6
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when even the median does
// not (then only the median is reported).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// dist summarises one timing: its median, its tail by the ladder rule,
// and how many samples both rest on.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 50)}
	d.TailPct = tailPercentile(len(s))
	if d.TailPct == 0 {
		d.Tail = d.P50
		d.TailPct = 50
	} else {
		d.Tail = quantile(s, d.TailPct)
	}
	return d
}

func median(samples []float64) float64 { return summarize(samples).P50 }

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric or workload name: a
// letter or digit followed by at most 63 of [A-Za-z0-9_.-].
func validName(name string) bool { return metricName.MatchString(name) }

// cellKey identifies one simulated outcome in a workload digest.
type cellKey struct {
	Benchmark, Model                   string
	Cycles, Committed, Fetched, Killed uint64
}

// digest hashes the simulated outcomes of one pass over a workload's
// cells, in the order given. Two passes over the same inputs must give
// the same digest; so must two builds of a simulator-only change.
func digest(cells []cellKey) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d\n", c.Benchmark, c.Model, c.Cycles, c.Committed, c.Fetched, c.Killed)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
