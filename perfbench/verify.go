package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"segrid/internal/core"
	"segrid/internal/grid"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/smt"
)

// The verify workload follows the ufdiverify -check-proof path in-process,
// one client in a closed loop: JSON spec → scenariofile.ParseAttack →
// AttackSpec.Scenario → core.NewModelContext → Model.CheckContext, with the
// certificate of every Unsat answer streamed in memory and checked by
// proof.Check inside the timed operation. The library path does not screen.

// verifyInput is one generated attack scenario.
type verifyInput struct {
	family string
	spec   []byte
	// wantUnsat marks scenarios below the smallest feasible attack: on the
	// synthetic ieee57/ieee118 cases every attack needs at least 7 altered
	// measurements on 3 buses, and secured measurements only raise that.
	wantUnsat bool
}

// verifyPoolSize is how many distinct inputs a run generates; a run cycles
// through them in order, so each operation in a typical run is a new input.
const verifyPoolSize = 1000

// verifyStrata is the fixed family mix, one entry per operation in a cycle,
// so every run has the same composition whatever its seed. The ieee118
// Unsat items, the slowest stratum, are a fifth of the cycle, so p90 falls
// inside their distribution rather than on the edge between two strata.
var verifyStrata = []struct {
	family string
	system string
}{
	{"targeted", "ieee57"},
	{"targeted", "ieee118"},
	{"bracket-unsat", "ieee57"},
	{"bracket-unsat", "ieee118"},
	{"bracket-sat", "ieee57"},
	{"bracket-sat", "ieee118"},
	{"tableiv", "ieee57"},
	{"tableiv", "ieee118"},
	{"bracket-unsat", "ieee118"},
	{"bracket-unsat", "ieee57"},
}

// fixedTargets118 are the ieee118 targets of the targeted family; 60 is the
// Fig. 4(a) benchmark row's target.
var fixedTargets118 = []int{39, 60}

// genVerifyInput draws input i of a run from rng, a stream seeded once per
// run.
func genVerifyInput(rng *rand.Rand, i int, systems map[string]*grid.System) (verifyInput, error) {
	st := verifyStrata[i%len(verifyStrata)]
	sys := systems[st.system]
	spec := scenariofile.AttackSpec{Case: st.system}
	in := verifyInput{family: st.family}
	switch st.family {
	case "targeted":
		// Fig. 4(a): one target state under quarter-size resource limits.
		spec.MaxMeasurements = sys.NumMeasurements() / 4
		spec.MaxBuses = sys.Buses / 4
		if st.system == "ieee118" {
			// Seeded ieee118 targets and overlays range from 0.1 to 7.6 s
			// per check, more than a run can average, so ieee118 alternates
			// between two fixed targets without overlays.
			spec.Targets = []int{fixedTargets118[(i/len(verifyStrata))%len(fixedTargets118)]}
			break
		}
		spec.Targets = []int{2 + rng.IntN(sys.Buses-1)}
	case "bracket-unsat":
		// One bus short of the smallest attack. (One measurement short, on 3
		// buses, is also Unsat, but secured measurements can make that proof
		// take seconds.)
		spec.AnyState = true
		spec.MaxMeasurements, spec.MaxBuses = 4+rng.IntN(7), 2
		in.wantUnsat = true
	case "bracket-sat":
		spec.AnyState = true
		spec.MaxMeasurements, spec.MaxBuses = 7+rng.IntN(6), 3
	case "tableiv":
		// Table IV: the unrestricted any-state attacker.
		spec.AnyState = true
	default:
		return in, fmt.Errorf("unknown verify family %q", st.family)
	}
	if len(spec.Targets) == 0 || st.system != "ieee118" {
		spec.Secured = randomSubset(rng, sys.NumMeasurements(), rng.IntN(5))
	}
	b, err := json.Marshal(&spec)
	if err != nil {
		return in, err
	}
	in.spec = b
	return in, nil
}

// randomSubset draws k distinct IDs from 1..n in ascending order.
func randomSubset(rng *rand.Rand, n, k int) []int {
	if k <= 0 {
		return nil
	}
	seen := make(map[int]bool, k)
	for len(seen) < k {
		seen[1+rng.IntN(n)] = true
	}
	out := make([]int, 0, k)
	for id := 1; id <= n; id++ {
		if seen[id] {
			out = append(out, id)
		}
	}
	return out
}

func loadSystems(names ...string) (map[string]*grid.System, error) {
	out := make(map[string]*grid.System, len(names))
	for _, n := range names {
		sys, err := grid.Case(n)
		if err != nil {
			return nil, err
		}
		out[n] = sys
	}
	return out, nil
}

type verifyState struct {
	inputs []verifyInput
	layers layerCounts
}

func setupVerify(seed uint64) (*verifyState, error) {
	systems, err := loadSystems("ieee57", "ieee118")
	if err != nil {
		return nil, err
	}
	v := &verifyState{inputs: make([]verifyInput, verifyPoolSize)}
	rng := rand.New(rand.NewPCG(seed, 0))
	for i := range v.inputs {
		if v.inputs[i], err = genVerifyInput(rng, i, systems); err != nil {
			return nil, err
		}
	}
	// Warm-up: one pass over a cycle of the strata, on inputs the timed loop
	// does not see, the same for every seed so set-up costs the same.
	warm := rand.New(rand.NewPCG(0, 0))
	for i := range verifyStrata {
		in, err := genVerifyInput(warm, i, systems)
		if err != nil {
			return nil, err
		}
		if r := verifyOp(in, 0, nil, nil); r.fatal != nil || r.wrong != nil {
			return nil, fmt.Errorf("warm-up: %v%v", r.fatal, r.wrong)
		}
	}
	return v, nil
}

// verifyOp runs one scenario through the ufdiverify -check-proof path and
// checks the answer. When tr is non-nil the layer calls are spanned and their
// counters added to lc.
func verifyOp(in verifyInput, req int64, tr *Tracer, lc *layerCounts) opResult {
	ctx := context.Background()
	a0 := allocBytes()
	t0 := time.Now()
	root := tr.Start(req, 0, "op")
	sp := tr.Start(req, root.ID(), "scenariofile.parse")
	spec, err := scenariofile.ParseAttack(in.spec)
	sp.End()
	if err != nil {
		return opResult{fatal: err}
	}
	sp = tr.Start(req, root.ID(), "scenariofile.scenario")
	sc, err := spec.Scenario()
	sp.End()
	if err != nil {
		return opResult{fatal: err}
	}
	var cert bytes.Buffer
	pw := proof.NewWriter(&cert)
	opts := smt.DefaultOptions()
	opts.Proof = pw
	sc.Options = &opts
	sp = tr.Start(req, root.ID(), "core.build")
	b0 := allocBytes()
	m, err := core.NewModelContext(ctx, sc)
	buildAlloc := allocBytes() - b0
	sp.End()
	if err != nil {
		return opResult{fatal: err}
	}
	sp = tr.Start(req, root.ID(), "smt.check")
	res, err := m.CheckContext(ctx)
	sp.End()
	if err != nil {
		return opResult{fatal: err}
	}
	if err := pw.Close(); err != nil {
		return opResult{fatal: fmt.Errorf("certificate stream: %w", err)}
	}
	var certErr error
	unsat := !res.Feasible && !res.Inconclusive
	if unsat {
		sp = tr.Start(req, root.ID(), "proof.check")
		certErr = checkCertificate(res, cert.Bytes())
		sp.End()
	}
	root.End()
	r := opResult{lat: time.Since(t0), alloc: allocBytes() - a0}
	if unsat {
		r.wrong = certErr
		if r.wrong == nil && !in.wantUnsat && in.family == "tableiv" {
			r.wrong = fmt.Errorf("%s: the unrestricted attacker must succeed", in.family)
		}
	} else {
		r.wrong = checkVerdict(sc, res, nil, in.wantUnsat)
	}
	if r.wrong != nil {
		r.wrong = fmt.Errorf("%s %s: %w", in.family, in.spec, r.wrong)
	}
	if tr != nil {
		lc.addCheck(res.Stats)
		lc.builds++
		lc.buildAlloc += buildAlloc
		if unsat {
			lc.certs++
			lc.certBytes += int64(cert.Len())
		}
	}
	return r
}

func runVerify(cfg config) (*report, error) {
	v, setupS, err := measureSetup(func() (*verifyState, error) { return setupVerify(cfg.seed) }, func(*verifyState) {})
	if err != nil {
		return nil, err
	}
	tracer := newTracer()
	st, err := runClosedLoop(cfg, tracer, len(verifyStrata), func(i int, tr *Tracer) opResult {
		return verifyOp(v.inputs[i%len(v.inputs)], int64(i+1), tr, &v.layers)
	})
	if err != nil {
		return nil, err
	}
	return st.report(setupS, &v.layers, tracer), nil
}
