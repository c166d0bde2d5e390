package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// samples holds raw measurements of one quantity over the measured
// window; quantiles are exact order statistics, never bucketed.
type samples []float64

func (s samples) sorted() samples {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// q returns the exact nearest-rank q-quantile (0 < q <= 1). An empty
// sample has none: NaN, which the result refuses to report.
func (s samples) q(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// topPercentile is the highest of p50, p90, p99, p99.9 and p99.99 that
// leaves at least ten samples beyond it; 0 when even p50 does not.
func topPercentile(n int) float64 {
	best := 0.0
	for _, p := range []int{5000, 9000, 9900, 9990, 9999} { // per 10,000
		rank := (p*n + 9999) / 10000
		if n-rank >= 10 {
			best = float64(p) / 100
		}
	}
	return best
}

// medianOver is the median over rounds of each round's exact
// q-quantile.
func medianOver(rounds []samples, q float64) float64 {
	per := make(samples, len(rounds))
	for i, s := range rounds {
		per[i] = s.q(q)
	}
	return per.q(0.5)
}

func count(rounds []samples) int {
	n := 0
	for _, s := range rounds {
		n += len(s)
	}
	return n
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMiB reads the process's peak resident set (VmHWM); the load
// generator runs in-process, so it is included.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
