package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer is a guess, not a measurement.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the nearest-rank q-quantile of an ascending slice.
func rank(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the nearest-rank median (NaN for no samples).
func median(xs []float64) float64 { return rank(sorted(xs), 0.5) }

// tail returns the highest percentile at or below q that leaves at
// least minBeyond samples beyond it, and the quantile actually used.
// With too few samples for any such percentile it falls back to the
// median, which is what a tail of so few samples can honestly say.
func tail(xs []float64, q float64) (v, used float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), q
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if max := n - 1 - minBeyond; i > max {
		i = max
	}
	if i < (n-1)/2 {
		return rank(s, 0.5), 0.5
	}
	return s[i], float64(i+1) / float64(n)
}

// mean is the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// openLoopTimes times one open-loop request. Latency runs from when the
// request was due, not from when the generator managed to send it, so
// a stall charges every request it delayed; lag is how late the send
// was, which flags a generator that could not keep up.
func openLoopTimes(due, sent, done time.Time) (latency, lag time.Duration) {
	lag = sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return done.Sub(due), lag
}

// loadStep is one fixed-rate step of the open-loop schedule.
type loadStep struct {
	Rate float64 // offered requests per second
	// Achieved is the rate the step was actually served at: requests
	// over the time from the step's start to its last completion.
	Achieved float64
	// Tail is the step's tail latency in ms, with failed or shed
	// requests counted as beyond any limit.
	Tail float64
	// Backlog reports a queue that grew over the step: it was served
	// well below its offered rate.
	Backlog bool
}

// passes reports whether the system sustained a step: its tail stayed
// within the limit and no backlog grew.
func (s loadStep) passes(limitMS float64) bool { return !s.Backlog && s.Tail <= limitMS }

// searchRate finds the highest rate the system sustains, in a fixed
// number of steps so every run spends the same time on it. From start
// it multiplies the rate by grow while steps pass (divides while they
// fail) until one passing and one failing rate bracket the answer, then
// halves the bracket geometrically with each remaining step. It returns
// the highest rate a passing step was served at, capped at its offered
// rate (0 when none passed), and the steps it ran.
//
// A probe that fails is run once more and counts as failed only if it
// fails again: a host stall can only make a step fail, never pass, so
// one failure alone says little. Every probe lies strictly inside the
// current bracket, so a step that fails twice by chance narrows the
// bracket but never leaves a pass above a fail.
func searchRate(start, grow float64, probes int, limitMS float64, step func(rate float64) loadStep) (float64, []loadStep) {
	lo, hi, best := 0.0, math.Inf(1), 0.0
	rate := start
	var steps []loadStep
	for i := 0; i < probes; i++ {
		s := step(rate)
		steps = append(steps, s)
		if !s.passes(limitMS) {
			s = step(rate)
			steps = append(steps, s)
		}
		if s.passes(limitMS) {
			lo = rate
			best = math.Max(best, math.Min(s.Achieved, s.Rate))
		} else {
			hi = rate
		}
		switch {
		case math.IsInf(hi, 1):
			rate = lo * grow
		case lo == 0:
			rate = hi / grow
		default:
			rate = math.Sqrt(lo * hi)
		}
	}
	return best, steps
}
