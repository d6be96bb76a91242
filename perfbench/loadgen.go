package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// openLoop issues requests on a schedule regardless of how earlier ones are
// doing: request i is due at start+dues[i] and is sent from its own goroutine
// as soon as the generator reaches it. send receives the due and actual send
// times, so latency is measured from the due time and includes any wait a
// generator stall imposed. stall, if non-nil, runs in the generator before
// request i is sent (the self-tests inject delays through it). openLoop
// returns once every request has completed.
func openLoop(start time.Time, dues []time.Duration, stall func(i int), send func(i int, due, sent time.Time)) {
	var wg sync.WaitGroup
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if stall != nil {
			stall(i)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			send(i, due, time.Now())
		}(i, due)
	}
	wg.Wait()
}

// poissonDues draws the due offsets of Poisson arrivals at rate per second
// over window, conditioned on the expected count: that many arrival times
// uniform over the window, sorted. Every seed then offers the same load, and
// only the arrival pattern varies.
func poissonDues(rate float64, window time.Duration, rng *rand.Rand) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
