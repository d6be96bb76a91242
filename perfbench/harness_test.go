package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// minSamples is the smallest sample count that leaves ten samples beyond the
// nearest-rank p90.
func TestSampleCountRule(t *testing.T) {
	past := func(n int) int {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p90, k := percentile(xs, 90), 0
		for _, x := range xs {
			if x > p90 {
				k++
			}
		}
		return k
	}
	if k := past(minSamples); k != 10 {
		t.Fatalf("%d samples leave %d beyond p90, want 10", minSamples, k)
	}
	if k := past(minSamples - 1); k >= 10 {
		t.Fatalf("%d samples already leave %d beyond p90; minSamples is not the smallest", minSamples-1, k)
	}
}

// A closed loop keeps going past its measuring time until it has minSamples
// operations, and counts every wrong answer as a failure.
func TestClosedLoopCountsFailures(t *testing.T) {
	cfg := config{seconds: time.Millisecond}
	st, err := runClosedLoop(cfg, nil, 1, func(i int, _ *Tracer) opResult {
		r := opResult{lat: time.Millisecond}
		if i%4 == 3 {
			r.wrong = errors.New("flipped")
		}
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted < minSamples {
		t.Fatalf("loop stopped after %d operations, want at least %d", st.attempted, minSamples)
	}
	if want := st.attempted / 4; st.failed != want {
		t.Fatalf("failed = %d of %d, want %d", st.failed, st.attempted, want)
	}
	if !strings.Contains(st.firstFailure, "operation 3: flipped") {
		t.Fatalf("first failure %q does not name operation 3", st.firstFailure)
	}
	ops := st.endToEnd(1)[0]
	if want := float64(st.attempted-st.failed) / st.elapsed.Seconds(); ops.Name != "ops_per_s" || ops.Value != want {
		t.Fatalf("%s = %v, want successes per second %v", ops.Name, ops.Value, want)
	}
}

func TestHarnessErrorStopsLoop(t *testing.T) {
	_, err := runClosedLoop(config{seconds: time.Second}, nil, 1, func(i int, _ *Tracer) opResult {
		return opResult{fatal: errors.New("broken input")}
	})
	if err == nil {
		t.Fatal("a harness error did not end the run")
	}
}

// A run with a wrong answer prints its result with correct=false and exits
// non-zero.
func TestWrongAnswerFailsRun(t *testing.T) {
	workloads["fake"] = func(cfg config) (*report, error) {
		return &report{attempted: 10, failed: 1, firstFailure: "flipped verdict",
			endToEnd: []metric{{Name: "p50_ms", Value: 1, Unit: "ms"}}}, nil
	}
	defer delete(workloads, "fake")
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "fake", "--seed", "1", "--seconds", "1", "--trace", "0", "-out", t.TempDir()}, &out, &errOut)
	if code != exitWrong {
		t.Fatalf("exit code %d, want %d", code, exitWrong)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 10 {
		t.Fatalf("result %+v, want correct=false attempted=10 failed=1", res)
	}
	if !strings.Contains(errOut.String(), "flipped verdict") {
		t.Fatalf("stderr %q does not report the failure", errOut.String())
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == exitOK {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q on a usage error", out.String())
	}
}

// Latency is timed from the due time, so a stall in the generator shows up
// in the latency of every request it delayed, and as generator lag.
func TestOpenLoopDueTimeLatencyUnderStall(t *testing.T) {
	const (
		n     = 30
		every = 10 * time.Millisecond
		stall = 120 * time.Millisecond
		at    = 10
	)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * every
	}
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	openLoop(time.Now(), dues, func(i int) {
		if i == at {
			time.Sleep(stall)
		}
	}, func(i int, due, sent time.Time) {
		done := time.Now()
		lat[i] = done.Sub(due)
		lag[i] = sent.Sub(due)
	})
	if lat[at] < stall {
		t.Fatalf("stalled request latency %v, want at least the %v stall", lat[at], stall)
	}
	// Requests due during the stall were sent late by the rest of it.
	for i := at + 1; i < at+int(stall/every); i++ {
		want := stall - time.Duration(i-at)*every
		if lat[i] < want {
			t.Errorf("request %d latency %v, want at least %v", i, lat[i], want)
		}
	}
	lagMs := make([]float64, n)
	for i, l := range lag {
		lagMs[i] = ms(l)
	}
	if p90 := percentile(lagMs, 90); p90 < ms(stall)/4 {
		t.Fatalf("generator lag p90 %.1f ms does not show the %v stall", p90, stall)
	}
}

func TestPoissonDuesOfferFixedLoad(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := poissonDues(40, 5*time.Second, rng)
	if len(d) != 200 {
		t.Fatalf("%d arrivals, want 200", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i] < d[i-1] || d[i] >= 5*time.Second {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, d[i])
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "a", Start: 70 * ms, End: 80 * ms},
	}
	self := selfTimes(spans)
	if got := self["op"].Self; got != 50*time.Millisecond {
		t.Errorf("op self time %v, want 50ms (children cover 10–50 and 70–80)", got)
	}
	if got := self["a"]; got.Count != 2 || got.Self != 30*time.Millisecond {
		t.Errorf("a: %+v, want 2 spans, 30ms", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(1, 0, "op")
	sp.End()
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned spans")
	}
	live := newTracer()
	root := live.Start(7, 0, "op")
	child := live.Start(7, root.ID(), "child")
	child.End()
	root.End()
	spans := live.Spans()
	if len(spans) != 2 || spans[0].Parent != root.ID() || spans[0].Req != 7 || spans[1].Req != 7 {
		t.Fatalf("spans %+v do not share the request id and parent link", spans)
	}
}
