package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"segrid/internal/scenariofile"
	"segrid/internal/service"
)

// The serve workload drives the segridd handler over loopback HTTP with
// seeded Poisson arrivals from one process (an open loop). The service runs
// in-process with the screening tier on, a temporary proof directory and
// serveWorkers scheduler workers. Every answer is checked, after the run,
// against ground truth computed at set-up by a separate, idle service with
// screening off.

const (
	serveWorkers = 2
	// serveBaseRate is the named base rate, in requests per second, at which
	// the end-to-end latencies are reported: well under the 120–180
	// requests/s at which this mix saturates two CPUs.
	serveBaseRate = 20.0
	// serveLimit is the latency limit on a rate's p90, from due time.
	serveLimit = 500 * time.Millisecond
	// metricsEvery is how often the traced run scrapes /metrics to sample
	// the scheduler queue.
	metricsEvery = 250 * time.Millisecond
)

// serveLadder lists the rates of the traced run, as multiples of the base
// rate, from well under saturation to past it.
var serveLadder = []float64{1, 2, 4, 6, 8, 11}

// The request universe. Its structure is fixed, so every seed offers the
// same mix of solver work: the seed draws the single-target and certificate
// overlays, the sweep items, the order of the warmed bounded keys, the
// request order and the arrival times.
//
// The screen leaves resource-bounded scenarios inconclusive after 0.3–1.5 s
// of LP work per new key, least on ieee57, so the bounded family runs on
// ieee57; the screen-off ground truth of ieee57 single-target scenarios takes
// up to a second per key, so single-target families stay on ieee14 and
// ieee30.
var (
	serveCases = []string{"ieee14", "ieee30", "ieee57"}
	// targets are the single-target attackers per system; ieee14's are also
	// the sweep bases whose items tighten the measurement bound.
	targets = map[string][]int{"ieee14": {5, 9}, "ieee30": {8, 22}}
	// tightBounds are the tightened bounds of ieee14 sweep items, one on each
	// side of the smallest feasible single-target attack.
	tightBounds = []int{6, 12}
	// boundedSpecs are the resource-bounded any-state attackers on ieee57:
	// one at the smallest feasible attack size and one with room to spare.
	// newBounded, with the measurement bound raised by one each time, gives
	// the bases the run builds first (pool misses).
	boundedSpecs = []scenariofile.AttackSpec{
		{Case: "ieee57", AnyState: true, MaxMeasurements: 7, MaxBuses: 3},
		{Case: "ieee57", AnyState: true, MaxMeasurements: 9, MaxBuses: 3},
	}
	newBounded = scenariofile.AttackSpec{Case: "ieee57", AnyState: true, MaxMeasurements: 8, MaxBuses: 3}
)

// targetOverlays is the number of secured-measurement overlays per
// single-target attacker; the set-up warms the first half, so a request's
// overlay is a screen-cache hit or, the first time the run uses it, a miss.
// boundedOverlays per bounded attacker are all warmed: the screen cache then
// sends them straight to a warm encoder, each a different solver query.
const (
	targetOverlays  = 80
	boundedOverlays = 6
)

// answerKey identifies one verdict: an attack spec plus the secured
// measurements overlaid on it.
type answerKey struct {
	Spec scenariofile.AttackSpec `json:"spec"`
	Meas []int                   `json:"meas,omitempty"`
}

// serveReq is one scheduled request.
type serveReq struct {
	kind string // verify, sweep, proof or proofcheck
	body []byte // nil for proofcheck, whose path is picked at send time
	keys []int  // truth-table indexes, one per verdict in the answer
	pick float64
}

// rung is one rate of the ladder with its schedule.
type rung struct {
	rate   float64
	window time.Duration
	dues   []time.Duration
	reqs   []serveReq
}

type serveState struct {
	keys     []answerKey
	keyIndex map[string]int
	truth    []string // "feasible" or "infeasible" per key
	meas     map[string]int
	overlays map[string][][]int // per "case/target": the overlay universe

	boundedCycle [][2]int // (spec, overlay) indexes of the warmed bounded keys
	boundedNext  int
	newBases     int // bounded bases built so far by the run
	rungs        []rung

	proofDir string
	svc      *service.Service
	srv      *http.Server
	url      string
	client   *http.Client

	mu        sync.Mutex
	published []string // certificate names, for proofcheck requests
}

func (s *serveState) key(k answerKey) int {
	b, _ := json.Marshal(&k) // a struct of ints and strings always marshals
	if i, ok := s.keyIndex[string(b)]; ok {
		return i
	}
	s.keys = append(s.keys, k)
	s.keyIndex[string(b)] = len(s.keys) - 1
	return len(s.keys) - 1
}

func targetSpec(c string, t int) scenariofile.AttackSpec {
	return scenariofile.AttackSpec{Case: c, Targets: []int{t}}
}

func overlayKey(c string, t int) string { return fmt.Sprintf("%s/%d", c, t) }

func boundedKey(i int) string { return fmt.Sprintf("bounded/%d", i) }

// serveDeck is the request mix per 100 requests, shuffled block by block so
// every window holds the stated shares: 65% verify (35 single-target, which
// the screen or its cache answers; 28 resource-bounded on warmed keys, which
// the screen cache sends to a warm encoder; one bounded with a new overlay
// and one on a new base, which pay the screen's inconclusive LP and, for the
// base, an encoder build), 20% sweep (5 on ieee14 mixing secured deltas with
// tightened bounds, 15 on ieee30 with secured deltas), 10%
// certificate-producing verify and 5% proofcheck. The slowest classes (the
// two cold bounded requests, the ieee14 sweeps and the ieee57 certificate
// requests) make 13%, so p90 falls inside the ieee57 certificate requests
// rather than on the edge between two classes.
var serveDeck = func() []string {
	var d []string
	for _, e := range []struct {
		kind string
		n    int
	}{
		{"verify/ieee14", 15}, {"verify/ieee30", 20},
		{"bounded", 28}, {"bounded/new-overlay", 1}, {"bounded/new-base", 1},
		{"sweep/ieee14", 5}, {"sweep/ieee30", 15},
		{"proof/ieee14", 1}, {"proof/ieee30", 3}, {"proof/ieee57", 6}, {"proofcheck", 5},
	} {
		for i := 0; i < e.n; i++ {
			d = append(d, e.kind)
		}
	}
	return d
}()

// pickTarget draws a single-target attacker and one of its overlays.
func (s *serveState) pickTarget(rng *rand.Rand, c string) (scenariofile.AttackSpec, []int) {
	ts := targets[c]
	t := ts[rng.IntN(len(ts))]
	ovs := s.overlays[overlayKey(c, t)]
	return targetSpec(c, t), ovs[rng.IntN(len(ovs))]
}

func (s *serveState) genRequest(rng *rand.Rand, entry string) (serveReq, error) {
	kind, variant, _ := strings.Cut(entry, "/")
	var (
		body any
		keys []int
		out  = serveReq{kind: kind}
	)
	switch kind {
	case "verify":
		spec, ov := s.pickTarget(rng, variant)
		body = &service.VerifyRequest{Attack: spec, SecuredMeasurements: ov}
		keys = []int{s.key(answerKey{spec, ov})}
	case "bounded":
		var (
			spec scenariofile.AttackSpec
			ov   []int
		)
		switch variant {
		case "new-overlay":
			spec = boundedSpecs[rng.IntN(len(boundedSpecs))]
			ov = randomSubset(rng, s.meas["ieee57"], 1+rng.IntN(3))
		case "new-base":
			spec = newBounded
			spec.MaxMeasurements += s.newBases
			s.newBases++
		default:
			// Warmed keys are taken in a seeded cycle, so every run repeats
			// each one equally often.
			k := s.boundedCycle[s.boundedNext%len(s.boundedCycle)]
			s.boundedNext++
			spec, ov = boundedSpecs[k[0]], s.overlays[boundedKey(k[0])][k[1]]
		}
		out.kind = "verify"
		body = &service.VerifyRequest{Attack: spec, SecuredMeasurements: ov}
		keys = []int{s.key(answerKey{spec, ov})}
	case "sweep":
		base, _ := s.pickTarget(rng, variant)
		req := &service.SweepRequest{Attack: base}
		for n := 8 + rng.IntN(17); len(req.Items) < n; {
			if variant == "ieee14" && rng.IntN(5) < 2 {
				k := tightBounds[rng.IntN(len(tightBounds))]
				spec := base
				spec.MaxMeasurements = k
				req.Items = append(req.Items, service.SweepItem{MaxAlteredMeasurements: &k})
				keys = append(keys, s.key(answerKey{Spec: spec}))
				continue
			}
			ovs := s.overlays[overlayKey(variant, base.Targets[0])]
			ov := ovs[rng.IntN(len(ovs))]
			req.Items = append(req.Items, service.SweepItem{SecuredMeasurements: ov})
			keys = append(keys, s.key(answerKey{base, ov}))
		}
		body = req
	case "proof":
		spec := infeasibleSpec(variant)
		ov := randomSubset(rng, s.meas[variant], 1+rng.IntN(4))
		body = &service.VerifyRequest{Attack: spec, SecuredMeasurements: ov, Proof: true}
		keys = []int{s.key(answerKey{spec, ov})}
	case "proofcheck":
		out.pick = rng.Float64()
		return out, nil
	default:
		return out, fmt.Errorf("unknown request kind %q", entry)
	}
	b, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	out.body, out.keys = b, keys
	return out, nil
}

// infeasibleSpec is an any-state attacker below the smallest feasible attack
// on every system: certificate requests always end infeasible.
func infeasibleSpec(c string) scenariofile.AttackSpec {
	return scenariofile.AttackSpec{Case: c, AnyState: true, MaxMeasurements: 2, MaxBuses: 1}
}

// setupServe generates the universe and the schedule of every rung, computes
// the ground truth, starts the served service and warms it.
func setupServe(cfg config) (*serveState, error) {
	systems, err := loadSystems(serveCases...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 2))
	s := &serveState{keyIndex: make(map[string]int), meas: make(map[string]int), overlays: make(map[string][][]int)}
	for _, c := range serveCases {
		s.meas[c] = systems[c].NumMeasurements()
	}
	for _, c := range []string{"ieee14", "ieee30"} {
		for _, t := range targets[c] {
			ovs := make([][]int, targetOverlays)
			for i := range ovs {
				ovs[i] = randomSubset(rng, s.meas[c], 1+rng.IntN(8))
			}
			s.overlays[overlayKey(c, t)] = ovs
		}
	}
	// The bounded overlays carry the solver work every request of the family
	// repeats, so they are the same for every seed.
	fixed := rand.New(rand.NewPCG(0, 2))
	for b := range boundedSpecs {
		ovs := make([][]int, boundedOverlays)
		for i := range ovs {
			ovs[i] = randomSubset(fixed, s.meas["ieee57"], 1+fixed.IntN(3))
		}
		s.overlays[boundedKey(b)] = ovs
		for i := range ovs {
			s.boundedCycle = append(s.boundedCycle, [2]int{b, i})
		}
	}
	rng.Shuffle(len(s.boundedCycle), func(a, b int) {
		s.boundedCycle[a], s.boundedCycle[b] = s.boundedCycle[b], s.boundedCycle[a]
	})
	rates := []float64{1}
	if cfg.traced {
		rates = serveLadder
	}
	// The untraced run spends its whole time at the base rate. The traced run
	// gives the base rate half its time, or enough for minSamples requests if
	// that is more, and shares the rest among the other rates.
	baseWindow := cfg.seconds
	if cfg.traced {
		need := time.Duration(float64(minSamples) / serveBaseRate * float64(time.Second))
		baseWindow = max(cfg.seconds/2, need)
	}
	for i, mult := range rates {
		window := baseWindow
		if i > 0 {
			window = (cfg.seconds - baseWindow) / time.Duration(len(rates)-1)
		}
		r := rung{rate: serveBaseRate * mult, window: window}
		r.dues = poissonDues(r.rate, window, rng)
		var deck []string
		for range r.dues {
			if len(deck) == 0 {
				deck = append([]string(nil), serveDeck...)
				rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			}
			req, err := s.genRequest(rng, deck[0])
			if err != nil {
				return nil, err
			}
			deck = deck[1:]
			r.reqs = append(r.reqs, req)
		}
		s.rungs = append(s.rungs, r)
	}
	warm, err := s.warmRequests()
	if err != nil {
		return nil, err
	}
	if err := s.groundTruth(); err != nil {
		return nil, err
	}
	if err := s.start(cfg.out); err != nil {
		return nil, err
	}
	if err := s.warmUp(warm); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// warmRequests lists the requests sent before timing: the warmed halves of
// the overlay universes, the bounded attackers, the tightened sweep items,
// and one certificate request per system so proofcheck has certificates
// from the start.
func (s *serveState) warmRequests() ([]serveReq, error) {
	var out []serveReq
	add := func(kind string, body any, keys ...int) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		out = append(out, serveReq{kind: kind, body: b, keys: keys})
		return nil
	}
	for _, c := range []string{"ieee14", "ieee30"} {
		for _, t := range targets[c] {
			spec := targetSpec(c, t)
			for _, ov := range s.overlays[overlayKey(c, t)][:targetOverlays/2] {
				if err := add("verify", &service.VerifyRequest{Attack: spec, SecuredMeasurements: ov}, s.key(answerKey{spec, ov})); err != nil {
					return nil, err
				}
			}
		}
	}
	for b, spec := range boundedSpecs {
		for _, ov := range s.overlays[boundedKey(b)] {
			if err := add("verify", &service.VerifyRequest{Attack: spec, SecuredMeasurements: ov}, s.key(answerKey{spec, ov})); err != nil {
				return nil, err
			}
		}
	}
	for _, t := range targets["ieee14"] {
		base := targetSpec("ieee14", t)
		req := &service.SweepRequest{Attack: base}
		var keys []int
		for _, k := range tightBounds {
			k := k
			spec := base
			spec.MaxMeasurements = k
			req.Items = append(req.Items, service.SweepItem{MaxAlteredMeasurements: &k})
			keys = append(keys, s.key(answerKey{Spec: spec}))
		}
		if err := add("sweep", req, keys...); err != nil {
			return nil, err
		}
	}
	for _, c := range serveCases {
		spec, ov := infeasibleSpec(c), []int{1}
		if err := add("proof", &service.VerifyRequest{Attack: spec, SecuredMeasurements: ov, Proof: true}, s.key(answerKey{spec, ov})); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// groundTruth answers every distinct key on an idle in-process service with
// screening off.
func (s *serveState) groundTruth() error {
	truthSvc, err := service.New(service.Config{MaxConcurrent: serveWorkers, SchedWorkers: serveWorkers})
	if err != nil {
		return err
	}
	defer truthSvc.Close()
	return s.groundTruthWith(truthSvc)
}

func (s *serveState) groundTruthWith(truthSvc *service.Service) error {
	s.truth = make([]string, len(s.keys))
	for i, k := range s.keys {
		resp, err := truthSvc.Verify(context.Background(), &service.VerifyRequest{Attack: k.Spec, SecuredMeasurements: k.Meas})
		if err != nil {
			return fmt.Errorf("ground truth: %w", err)
		}
		if resp.Status != "feasible" && resp.Status != "infeasible" {
			return fmt.Errorf("ground truth for %+v: %s (%s)", k, resp.Status, resp.Why)
		}
		s.truth[i] = resp.Status
	}
	return nil
}

// start runs the served service behind an HTTP server on a loopback port.
func (s *serveState) start(out string) error {
	dir, err := os.MkdirTemp(out, "proofs-")
	if err != nil {
		return err
	}
	s.proofDir = dir
	s.svc, err = service.New(service.Config{
		MaxConcurrent: serveWorkers,
		SchedWorkers:  serveWorkers,
		Screen:        true,
		ProofDir:      dir,
	})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		os.RemoveAll(dir)
		return err
	}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed after stop's Shutdown
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		DisableCompression:  true,
	}}
	return nil
}

// stop shuts the server and service down and removes the certificates.
func (s *serveState) stop() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout leaves only idle loopback connections behind
	s.client.CloseIdleConnections()
	s.svc.Close()
	os.RemoveAll(s.proofDir)
	s.srv = nil
}

// warmUp sends the warm-up requests two at a time and checks their answers.
func (s *serveState) warmUp(reqs []serveReq) error {
	results := make([]reqResult, len(reqs))
	sem := make(chan struct{}, serveWorkers)
	var wg sync.WaitGroup
	for i := range reqs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = s.do(reqs[i], nil, 0)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if o, err := s.check(reqs[i], r); o != outcomeOK {
			return fmt.Errorf("warm-up request %d (%s): %s: %v", i, reqs[i].kind, o, err)
		}
	}
	return nil
}

// reqResult is what one HTTP round trip returned.
type reqResult struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
	traced          bool
}

var kindPaths = map[string]string{
	"verify":     "/v1/verify",
	"proof":      "/v1/verify",
	"sweep":      "/v1/sweep",
	"proofcheck": "/v1/proofcheck",
}

// do performs one request. A certificate published by a proof request is
// added to the list proofcheck requests draw from.
func (s *serveState) do(req serveReq, tr *Tracer, id int64) reqResult {
	body := req.body
	if req.kind == "proofcheck" {
		s.mu.Lock()
		n := len(s.published)
		var path string
		if n > 0 {
			path = s.published[int(req.pick*float64(n))]
		}
		s.mu.Unlock()
		if n == 0 {
			return reqResult{done: time.Now(), err: errors.New("no certificate published yet")}
		}
		body, _ = json.Marshal(&service.ProofCheckRequest{Path: path}) // a one-string struct always marshals
	}
	sp := tr.Start(id, 0, "http."+req.kind)
	var r reqResult
	resp, err := s.client.Post(s.url+kindPaths[req.kind], "application/json", bytes.NewReader(body))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	sp.End()
	r.done, r.err, r.traced = time.Now(), err, tr != nil
	if req.kind == "proof" && err == nil && r.status == http.StatusOK {
		var vr service.VerifyResponse
		if json.Unmarshal(r.body, &vr) == nil && vr.ProofFile != "" {
			s.mu.Lock()
			s.published = append(s.published, vr.ProofFile)
			s.mu.Unlock()
		}
	}
	return r
}

// scrape reads /metrics as a generic JSON object, so the harness keeps
// working when counters are added or regrouped.
func (s *serveState) scrape(tr *Tracer) (map[string]any, error) {
	sp := tr.Start(0, 0, "http.metrics")
	defer sp.End()
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

// num looks a counter up by path, 0 when absent.
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[p]
	}
	f, _ := cur.(float64)
	return f
}

// outcome classifies one answered request.
type outcome string

const (
	outcomeOK           outcome = "ok"
	outcomeShed         outcome = "shed"         // 429 or 503: refused, not answered
	outcomeInconclusive outcome = "inconclusive" // answered without a verdict
	outcomeTransport    outcome = "transport error"
	outcomeWrong        outcome = "wrong answer" // wrong verdict, bad witness or certificate, error status
)

// check compares one answer with the ground truth and replays every served
// attack vector.
func (s *serveState) check(req serveReq, r reqResult) (outcome, error) {
	switch {
	case r.err != nil:
		return outcomeTransport, r.err
	case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
		return outcomeShed, fmt.Errorf("status %d", r.status)
	case r.status != http.StatusOK:
		return outcomeWrong, fmt.Errorf("status %d: %s", r.status, r.body)
	}
	switch req.kind {
	case "proofcheck":
		var pc service.ProofCheckResponse
		if err := json.Unmarshal(r.body, &pc); err != nil {
			return outcomeWrong, err
		}
		if !pc.Valid {
			return outcomeWrong, fmt.Errorf("published certificate rejected: %s", pc.Error)
		}
		return outcomeOK, nil
	case "sweep":
		var sr service.SweepResponse
		if err := json.Unmarshal(r.body, &sr); err != nil {
			return outcomeWrong, err
		}
		if len(sr.Items) != len(req.keys) {
			return outcomeWrong, fmt.Errorf("%d sweep items answered, %d asked", len(sr.Items), len(req.keys))
		}
		for i, it := range sr.Items {
			if o, err := s.checkVerdict(req.keys[i], it); o != outcomeOK {
				return o, fmt.Errorf("sweep item %d: %w", i, err)
			}
		}
		return outcomeOK, nil
	default:
		var vr service.VerifyResponse
		if err := json.Unmarshal(r.body, &vr); err != nil {
			return outcomeWrong, err
		}
		if o, err := s.checkVerdict(req.keys[0], &vr); o != outcomeOK {
			return o, err
		}
		if req.kind == "proof" && (vr.ProofFile == "" || vr.ProofError != "") {
			return outcomeWrong, fmt.Errorf("certificate not published: %q", vr.ProofError)
		}
		return outcomeOK, nil
	}
}

// checkVerdict compares one served verdict with the ground truth and replays
// a feasible answer's attack vector against the scenario.
func (s *serveState) checkVerdict(key int, vr *service.VerifyResponse) (outcome, error) {
	if vr == nil {
		return outcomeWrong, errors.New("missing verdict")
	}
	if vr.Status == "inconclusive" {
		return outcomeInconclusive, fmt.Errorf("%s (%s)", vr.Why, vr.UnknownReason)
	}
	if vr.Status != s.truth[key] {
		return outcomeWrong, fmt.Errorf("verdict %s, ground truth %s for %+v", vr.Status, s.truth[key], s.keys[key])
	}
	if vr.Status != "feasible" {
		return outcomeOK, nil
	}
	k := s.keys[key]
	sc, err := k.Spec.Scenario()
	if err != nil {
		return outcomeWrong, err
	}
	if err := sc.Meas.Secure(k.Meas...); err != nil {
		return outcomeWrong, err
	}
	res, err := resultFromWire(vr.AlteredMeasurements, vr.CompromisedBuses, vr.ExcludedLines, vr.IncludedLines, vr.StateChanges)
	if err != nil {
		return outcomeWrong, err
	}
	if err := replayWitness(sc, res); err != nil {
		return outcomeWrong, err
	}
	return outcomeOK, nil
}

// rungRun is what the harness observed while one rung ran.
type rungRun struct {
	results       []reqResult
	start         time.Time
	lastDone      time.Time
	allocBytes    uint64
	peakHeapMB    float64
	before, after map[string]any
	queued        []float64
}

// sampleQueue scrapes /metrics every metricsEvery until the returned stop
// function is called; stop returns the sampled scheduler queue depths.
func (s *serveState) sampleQueue(tr *Tracer) (stop func() []float64) {
	done := make(chan struct{})
	var (
		wg     sync.WaitGroup
		queued []float64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(metricsEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if m, err := s.scrape(tr); err == nil {
					queued = append(queued, num(m, "sched", "queued"))
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return queued
	}
}

// runRung drives one rate through the open loop. In the traced run every
// second request carries the tracer and /metrics is sampled throughout.
func (s *serveState) runRung(r rung, traced bool, tracer *Tracer, firstID int64) (*rungRun, error) {
	before, err := s.scrape(nil)
	if err != nil {
		return nil, err
	}
	rr := &rungRun{results: make([]reqResult, len(r.reqs)), before: before}
	stopQueue := func() []float64 { return nil }
	if traced {
		stopQueue = s.sampleQueue(tracer)
	}
	runtime.GC() // the live-heap baseline is the service's, not the set-up's
	heap := startHeapSampler(10 * time.Millisecond)
	a0 := allocBytes()
	rr.start = time.Now()
	openLoop(rr.start, r.dues, nil, func(i int, due, sent time.Time) {
		var tr *Tracer
		if traced && i%2 == 1 {
			tr = tracer
		}
		res := s.do(r.reqs[i], tr, firstID+int64(i))
		res.due, res.sent = due, sent
		rr.results[i] = res
	})
	for _, res := range rr.results {
		if res.done.After(rr.lastDone) {
			rr.lastDone = res.done
		}
	}
	rr.allocBytes = allocBytes() - a0
	rr.peakHeapMB = heap.Stop()
	rr.queued = stopQueue()
	if rr.after, err = s.scrape(nil); err != nil {
		return nil, err
	}
	return rr, nil
}

// rungStats is the analysis of one rung.
type rungStats struct {
	latMs, lagMs         []float64
	tracedMs, untracedMs []float64
	verifyMs, sweepMs    []float64
	overheadMs           []float64
	okWithinLimit        int
	notOK                int
	wrong                int
	firstFailure         string
	meets                bool
}

func (s *serveState) analyze(r rung, rr *rungRun) *rungStats {
	st := &rungStats{}
	for i, res := range rr.results {
		req := r.reqs[i]
		lat := ms(res.done.Sub(res.due))
		st.latMs = append(st.latMs, lat)
		st.lagMs = append(st.lagMs, ms(res.sent.Sub(res.due)))
		if res.traced {
			st.tracedMs = append(st.tracedMs, lat)
		} else {
			st.untracedMs = append(st.untracedMs, lat)
		}
		switch req.kind {
		case "verify", "proof":
			st.verifyMs = append(st.verifyMs, lat)
		case "sweep":
			st.sweepMs = append(st.sweepMs, lat)
		}
		o, err := s.check(req, res)
		if o != outcomeOK {
			st.notOK++
			if o == outcomeWrong {
				st.wrong++
			}
			if st.firstFailure == "" {
				st.firstFailure = fmt.Sprintf("%s request %d: %s: %v", req.kind, i, o, err)
			}
			continue
		}
		if lat <= ms(serveLimit) {
			st.okWithinLimit++
		}
		if req.kind != "proofcheck" {
			var el struct {
				ElapsedMs float64 `json:"elapsedMs"`
			}
			if json.Unmarshal(res.body, &el) == nil {
				st.overheadMs = append(st.overheadMs, ms(res.done.Sub(res.sent))-el.ElapsedMs)
			}
		}
	}
	drained := rr.lastDone.Sub(rr.start.Add(r.window)) <= serveLimit
	st.meets = len(st.latMs) > 0 && st.notOK == 0 && percentile(st.latMs, 90) <= ms(serveLimit) && drained
	return st
}

func runServe(cfg config) (*report, error) {
	s, setupS, err := measureSetup(func() (*serveState, error) { return setupServe(cfg) }, func(s *serveState) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer s.stop()
	tracer := newTracer()
	var (
		runs  []*rungRun
		stats []*rungStats
		id    int64 = 1
	)
	for _, r := range s.rungs {
		rr, err := s.runRung(r, cfg.traced, tracer, id)
		if err != nil {
			return nil, err
		}
		id += int64(len(r.reqs))
		runs = append(runs, rr)
		// Let the previous rate's queue drain before the next one starts.
		time.Sleep(200 * time.Millisecond)
	}
	rep := &report{}
	for i, r := range s.rungs {
		st := s.analyze(r, runs[i])
		stats = append(stats, st)
		rep.attempted += len(r.reqs)
		failed := st.wrong
		if i == 0 {
			failed = st.notOK
		}
		rep.failed += failed
		if failed > 0 && rep.firstFailure == "" {
			rep.firstFailure = fmt.Sprintf("rate %.1f/s: %s", r.rate, st.firstFailure)
		}
	}
	base, baseRun, baseRung := stats[0], runs[0], s.rungs[0]
	n := len(base.latMs)
	if n < minSamples {
		return nil, fmt.Errorf("only %d requests at the base rate; a run needs %d", n, minSamples)
	}
	// Goodput is counted over the window plus whatever time the last request
	// needed past it.
	span := baseRun.lastDone.Sub(baseRun.start)
	if span < baseRung.window {
		span = baseRung.window
	}
	rep.endToEnd = []metric{
		{Name: "ops_per_s", Value: float64(base.okWithinLimit) / span.Seconds(), Unit: "1/s", Samples: n},
		{Name: "p50_ms", Value: median(base.latMs), Unit: "ms", Samples: n},
		{Name: "p90_ms", Value: percentile(base.latMs, 90), Unit: "ms", Samples: n},
		{Name: "setup_s", Value: setupS, Unit: "s", Samples: setupRepeats},
		{Name: "peak_heap_mb", Value: baseRun.peakHeapMB, Unit: "MiB"},
		{Name: "alloc_mb_per_op", Value: float64(baseRun.allocBytes) / (1 << 20) / float64(n), Unit: "MiB"},
	}
	var lc layerCounts
	d := func(path ...string) float64 { return num(baseRun.after, path...) - num(baseRun.before, path...) }
	screens := d("screenAccepts") + d("screenRejects") + d("screenInconclusive")
	lc.serve = serveLayers{
		screenMsPerCall:     ratio(d("screenNanos")/1e6, d("screenCacheMisses")),
		screenDefinitive:    ratio(d("screenAccepts")+d("screenRejects"), screens),
		poolHitRatio:        ratio(d("pool", "hits"), d("pool", "hits")+d("pool", "misses")),
		poolBuilds:          d("pool", "misses"),
		poolEvicts:          d("pool", "evictions"),
		schedQueuedMean:     mean(baseRun.queued),
		schedInlineRatio:    ratio(d("sched", "unitsInline"), d("sched", "unitsRun")),
		screenCacheHitRatio: ratio(d("screenCacheHits"), d("screenCacheHits")+d("screenCacheMisses")),
		shedRatio:           ratio(d("shed429")+d("shed503"), d("requests")),
		inconclusiveRatio:   ratio(d("inconclusive"), d("feasible")+d("infeasible")+d("inconclusive")),
		httpOverheadMs:      mean(base.overheadMs),
		lagP90Ms:            percentile(base.lagMs, 90),
		verifyP50:           median(base.verifyMs),
		verifyP90:           percentile(base.verifyMs, 90),
		sweepP50:            median(base.sweepMs),
		sweepP90:            percentile(base.sweepMs, 90),
	}
	for i, st := range stats {
		if st.meets {
			lc.serve.maxRateRps = s.rungs[i].rate
		}
	}
	lc.traceOverhead = ratio(median(base.tracedMs), median(base.untracedMs))
	lc.failRatio = ratio(float64(rep.failed), float64(rep.attempted))
	rep.spans = tracer.Spans()
	rep.perLayer = lc.perLayer(rep.spans)
	sort.Slice(rep.spans, func(i, j int) bool { return rep.spans[i].Start < rep.spans[j].Start })
	return rep, nil
}
