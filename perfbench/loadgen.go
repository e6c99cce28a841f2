package main

import (
	"math/rand"
	"sync"
	"time"
)

// openWindows is how many equal shares of an open loop's schedule are
// measured as separate windows (see level).
const openWindows = 3

// Schedule returns the send offsets of n arrivals of a Poisson process at
// the given rate, conditioned on exactly n arrivals in n/rate seconds:
// exponential gaps drawn from the seed and rescaled so that the span is
// exact. Fixing the count keeps the offered load identical across seeds;
// only the arrival pattern varies. The same seed always gives the same
// schedule.
func Schedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	span := float64(n) / rate
	out := make([]time.Duration, n)
	at := 0.0
	for i := 0; i < n; i++ {
		at += gaps[i]
		out[i] = time.Duration(at / total * span * float64(time.Second))
	}
	return out
}

// Labels returns n session labels in [0, k) for a schedule measured in
// openWindows windows: each window sends every label equally often, in a
// seeded random order, so every window has the same query mix. n must be
// a multiple of k*openWindows.
func Labels(seed int64, n, k int) []int {
	out := make([]int, n)
	per := n / openWindows
	for w := 0; w < openWindows; w++ {
		copy(out[w*per:], Shuffled(seed*openWindows+int64(w), per, k))
	}
	return out
}

// Shuffled returns n labels in [0, k) with every label used n/k times (n
// must be a multiple of k), in a seeded random order.
func Shuffled(seed int64, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// arrivals is how many queries a schedule of k sessions at rate for
// seconds sends, rounded to whole rounds of k per window.
func arrivals(rate, seconds float64, k int) int {
	round := k * openWindows
	return round * int(rate*seconds/float64(round)+0.5)
}

// OpenLoop sends request i at start+offsets[i] whatever the state of the
// earlier ones: each send runs on its own goroutine, so a slow target
// queues work instead of slowing the generator. send receives the time the
// request was due; it measures latency from there, so a stall is charged
// to every request that was due while it lasted. OpenLoop returns once
// every send has returned, with each send's lag behind its due time.
func OpenLoop(start time.Time, offsets []time.Duration, send func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, len(offsets))
	var wg sync.WaitGroup
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			send(i, due)
		}(i, due)
	}
	wg.Wait()
	return lags
}
