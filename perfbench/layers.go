package main

import (
	"time"

	"segrid/internal/smt"
)

// layerCounts accumulates the work the traced operations did in each layer.
// Every workload reports every per-layer metric; a layer a workload bypasses
// reports 0.
type layerCounts struct {
	checks                   int
	boolVars, clauses        int64
	conflicts, decisions     int64
	propagations, restarts   int64
	theoryChecks, pivots     int64
	fastOps, bigOps          int64
	checkAlloc               uint64
	builds                   int
	buildAlloc               uint64
	certs                    int
	certBytes                int64
	archs, iterations        int
	selectTime, verifyTime   time.Duration
	serve                    serveLayers
	traceOverhead, failRatio float64
}

// serveLayers holds the figures only the serve workload produces.
type serveLayers struct {
	screenMsPerCall, screenDefinitive    float64
	poolHitRatio, poolBuilds, poolEvicts float64
	schedQueuedMean, schedInlineRatio    float64
	screenCacheHitRatio, shedRatio       float64
	inconclusiveRatio, httpOverheadMs    float64
	lagP90Ms, maxRateRps                 float64
	verifyP50, verifyP90                 float64
	sweepP50, sweepP90                   float64
}

// addCheck records one SMT check's solver statistics.
func (l *layerCounts) addCheck(st smt.Stats) {
	l.checks++
	l.boolVars += int64(st.BoolVars)
	l.clauses += int64(st.Clauses)
	l.conflicts += st.Conflicts
	l.decisions += st.Decisions
	l.propagations += st.Propagations
	l.restarts += st.Restarts
	l.theoryChecks += st.TheoryChecks
	l.pivots += st.Pivots
	l.fastOps += st.FastOps
	l.bigOps += st.BigOps
	l.checkAlloc += st.AllocBytes
}

// perLayer renders the per-layer metric set from the counters and the
// self times of the recorded spans.
func (l *layerCounts) perLayer(spans []Span) []metric {
	self := selfTimes(spans)
	perCheck := func(v int64) float64 { return ratio(float64(v), float64(l.checks)) }
	mib := func(b uint64, n int) float64 { return ratio(float64(b)/(1<<20), float64(n)) }
	s := l.serve
	return []metric{
		{Name: "scenariofile.parse_us", Value: self["scenariofile.parse"].MeanMs() * 1000, Unit: "us", Samples: self["scenariofile.parse"].Count},
		{Name: "core.build_ms", Value: self["core.build"].MeanMs(), Unit: "ms", Samples: self["core.build"].Count},
		{Name: "core.build_alloc_mb", Value: mib(l.buildAlloc, l.builds), Unit: "MiB"},
		{Name: "smt.check_ms", Value: self["smt.check"].MeanMs(), Unit: "ms", Samples: self["smt.check"].Count},
		{Name: "smt.check_alloc_mb", Value: mib(l.checkAlloc, l.checks), Unit: "MiB"},
		{Name: "cnf.clauses", Value: perCheck(l.clauses), Unit: "count"},
		{Name: "cnf.bool_vars", Value: perCheck(l.boolVars), Unit: "count"},
		{Name: "sat.conflicts", Value: perCheck(l.conflicts), Unit: "count"},
		{Name: "sat.decisions", Value: perCheck(l.decisions), Unit: "count"},
		{Name: "sat.propagations", Value: perCheck(l.propagations), Unit: "count"},
		{Name: "sat.restarts", Value: perCheck(l.restarts), Unit: "count"},
		{Name: "lra.theory_checks", Value: perCheck(l.theoryChecks), Unit: "count"},
		{Name: "lra.pivots", Value: perCheck(l.pivots), Unit: "count"},
		{Name: "lra.fast_op_ratio", Value: ratio(float64(l.fastOps), float64(l.fastOps+l.bigOps)), Unit: "ratio"},
		{Name: "proof.bytes", Value: ratio(float64(l.certBytes), float64(l.certs)), Unit: "bytes", Samples: l.certs},
		{Name: "proof.check_ms", Value: self["proof.check"].MeanMs(), Unit: "ms", Samples: self["proof.check"].Count},
		{Name: "synth.iterations", Value: ratio(float64(l.iterations), float64(l.archs)), Unit: "count", Samples: l.archs},
		{Name: "synth.select_ms", Value: ratio(ms(l.selectTime), float64(l.archs)), Unit: "ms"},
		{Name: "synth.verify_ms", Value: ratio(ms(l.verifyTime), float64(l.archs)), Unit: "ms"},
		{Name: "synth.recheck_ms", Value: self["synth.recheck"].MeanMs(), Unit: "ms", Samples: self["synth.recheck"].Count},
		{Name: "screen.ms_per_call", Value: s.screenMsPerCall, Unit: "ms"},
		{Name: "screen.definitive_ratio", Value: s.screenDefinitive, Unit: "ratio"},
		{Name: "pool.hit_ratio", Value: s.poolHitRatio, Unit: "ratio"},
		{Name: "pool.builds", Value: s.poolBuilds, Unit: "count"},
		{Name: "pool.evictions", Value: s.poolEvicts, Unit: "count"},
		{Name: "sched.queued_mean", Value: s.schedQueuedMean, Unit: "count"},
		{Name: "sched.inline_ratio", Value: s.schedInlineRatio, Unit: "ratio"},
		{Name: "service.screen_cache_hit_ratio", Value: s.screenCacheHitRatio, Unit: "ratio"},
		{Name: "service.shed_ratio", Value: s.shedRatio, Unit: "ratio"},
		{Name: "service.inconclusive_ratio", Value: s.inconclusiveRatio, Unit: "ratio"},
		{Name: "service.http_overhead_ms", Value: s.httpOverheadMs, Unit: "ms"},
		{Name: "loadgen.lag_p90_ms", Value: s.lagP90Ms, Unit: "ms"},
		{Name: "max_rate_rps", Value: s.maxRateRps, Unit: "1/s"},
		{Name: "http_verify_p50_ms", Value: s.verifyP50, Unit: "ms"},
		{Name: "http_verify_p90_ms", Value: s.verifyP90, Unit: "ms"},
		{Name: "http_sweep_p50_ms", Value: s.sweepP50, Unit: "ms"},
		{Name: "http_sweep_p90_ms", Value: s.sweepP90, Unit: "ms"},
		{Name: "harness.self_ms", Value: self["op"].MeanMs(), Unit: "ms", Samples: self["op"].Count},
		{Name: "fail_ratio", Value: l.failRatio, Unit: "ratio"},
		{Name: "trace.overhead_ratio", Value: l.traceOverhead, Unit: "ratio"},
	}
}
