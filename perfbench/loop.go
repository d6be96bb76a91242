package main

import (
	"fmt"
	"runtime"
	"time"
)

// opResult is one operation's outcome. lat and alloc cover only the
// program's work, not the oracle that checks it; wrong is a wrong or
// unchecked answer (counted as a failure), fatal a harness error that ends
// the run.
type opResult struct {
	lat   time.Duration
	alloc uint64
	wrong error
	fatal error
}

// loopStats summarizes a closed loop.
type loopStats struct {
	latMs        []float64 // every operation
	tracedMs     []float64 // operations run with the tracer (trace mode only)
	untracedMs   []float64 // the other operations (trace mode only)
	attempted    int
	failed       int
	firstFailure string
	elapsed      time.Duration
	allocBytes   uint64
	peakHeapMB   float64
}

// extraTime bounds how far a loop may run past its measuring time to reach
// minSamples, keeping every run inside its time limit.
const extraTime = 60 * time.Second

// runClosedLoop runs one client that issues operation i+1 only after
// operation i has completed, until the measuring time has passed and at least
// minSamples operations are done. In trace mode blocks of traceBlock
// operations alternate between running with and without the tracer, so traced
// and untraced latencies come from one run over the same input mix.
func runClosedLoop(cfg config, tracer *Tracer, traceBlock int, op func(i int, tr *Tracer) opResult) (*loopStats, error) {
	st := &loopStats{}
	runtime.GC() // the live-heap baseline is the program's, not the set-up's
	heap := startHeapSampler(10 * time.Millisecond)
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= cfg.seconds && st.attempted >= minSamples {
			break
		}
		if el >= cfg.seconds+extraTime {
			heap.Stop()
			return nil, fmt.Errorf("only %d operations in %v; a run needs %d", st.attempted, el.Round(time.Second), minSamples)
		}
		var tr *Tracer
		if cfg.traced && (i/traceBlock)%2 == 1 {
			tr = tracer
		}
		r := op(i, tr)
		if r.fatal != nil {
			heap.Stop()
			return nil, fmt.Errorf("operation %d: %w", i, r.fatal)
		}
		st.attempted++
		st.allocBytes += r.alloc
		l := ms(r.lat)
		st.latMs = append(st.latMs, l)
		if cfg.traced {
			if tr != nil {
				st.tracedMs = append(st.tracedMs, l)
			} else {
				st.untracedMs = append(st.untracedMs, l)
			}
		}
		if r.wrong != nil {
			st.failed++
			if st.firstFailure == "" {
				st.firstFailure = fmt.Sprintf("operation %d: %v", i, r.wrong)
			}
		}
	}
	st.elapsed = time.Since(start)
	st.peakHeapMB = heap.Stop()
	return st, nil
}

// endToEnd derives the closed-loop end-to-end metrics.
func (st *loopStats) endToEnd(setupS float64) []metric {
	n := len(st.latMs)
	return []metric{
		{Name: "ops_per_s", Value: float64(st.attempted-st.failed) / st.elapsed.Seconds(), Unit: "1/s", Samples: n},
		{Name: "p50_ms", Value: median(st.latMs), Unit: "ms", Samples: n},
		{Name: "p90_ms", Value: percentile(st.latMs, 90), Unit: "ms", Samples: n},
		{Name: "setup_s", Value: setupS, Unit: "s", Samples: setupRepeats},
		{Name: "peak_heap_mb", Value: st.peakHeapMB, Unit: "MiB"},
		{Name: "alloc_mb_per_op", Value: float64(st.allocBytes) / (1 << 20) / float64(st.attempted), Unit: "MiB"},
	}
}

// overheadRatio is the traced operations' median latency over the untraced
// ones' (1 means tracing costs nothing measurable).
func (st *loopStats) overheadRatio() float64 {
	return ratio(median(st.tracedMs), median(st.untracedMs))
}

// report assembles a closed-loop workload's result from the loop, its
// set-up time and the counters its traced operations gathered.
func (st *loopStats) report(setupS float64, lc *layerCounts, tracer *Tracer) *report {
	lc.traceOverhead = st.overheadRatio()
	lc.failRatio = ratio(float64(st.failed), float64(st.attempted))
	spans := tracer.Spans()
	return &report{
		attempted:    st.attempted,
		failed:       st.failed,
		firstFailure: st.firstFailure,
		endToEnd:     st.endToEnd(setupS),
		perLayer:     lc.perLayer(spans),
		spans:        spans,
	}
}
