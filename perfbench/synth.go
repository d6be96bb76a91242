package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"segrid/internal/scenariofile"
	"segrid/internal/synth"
)

// The synth workload runs sequential Algorithm 1 (synth.SynthesizeContext
// with default options, Prune on and the shipped screen pre-filter on), one
// client in a closed loop, over any-state attackers with seeded excluded buses
// and operator budgets near the smallest feasible one, so the selection /
// verification loop iterates and a share of the budgets is proven impossible.

// synthInput is one generated synthesis instance.
type synthInput struct {
	system string
	spec   []byte
}

// synthPoolSize is how many distinct instances a run generates; a run cycles
// through them in order, so each operation in a typical run is a new instance.
const synthPoolSize = 2000

// synthStrata fixes the composition, one entry per operation in a cycle: the
// system, how many buses may be excluded, and the operator budget. The
// budgets sit at and just above the smallest feasible one (ieee30: 11 with no
// exclusions, so 10 is impossible; ieee57: 20). ieee57 at 20–21 and ieee118
// are left out: one run of those takes 0.3–5 s, too long for a run to
// collect its samples.
var synthStrata = []struct {
	system      string
	maxExcluded int
	budget      int
}{
	{"ieee30", 2, 10},
	{"ieee30", 2, 11},
	{"ieee57", 1, 22},
	{"ieee30", 2, 12},
	{"ieee57", 1, 23},
	{"ieee30", 2, 10},
	{"ieee30", 2, 11},
	{"ieee57", 1, 22},
}

func genSynthInput(rng *rand.Rand, i int, buses map[string]int) (synthInput, error) {
	st := synthStrata[i%len(synthStrata)]
	spec := scenariofile.SynthesisSpec{
		Attack:          scenariofile.AttackSpec{Case: st.system, AnyState: true},
		MaxSecuredBuses: st.budget,
		Prune:           true,
	}
	// Excluded buses never include the reference bus 1.
	for _, b := range randomSubset(rng, buses[st.system]-1, rng.IntN(st.maxExcluded+1)) {
		spec.ExcludedBuses = append(spec.ExcludedBuses, b+1)
	}
	b, err := json.Marshal(&spec)
	if err != nil {
		return synthInput{}, err
	}
	return synthInput{system: st.system, spec: b}, nil
}

type synthState struct {
	inputs []synthInput
	layers layerCounts
	// impossible records the inputs answered "no architecture"; the oracle
	// confirms them after the timed loop.
	impossible map[int]bool
}

func setupSynth(seed uint64) (*synthState, error) {
	systems, err := loadSystems("ieee30", "ieee57")
	if err != nil {
		return nil, err
	}
	buses := map[string]int{"ieee30": systems["ieee30"].Buses, "ieee57": systems["ieee57"].Buses}
	s := &synthState{inputs: make([]synthInput, synthPoolSize), impossible: make(map[int]bool)}
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := range s.inputs {
		if s.inputs[i], err = genSynthInput(rng, i, buses); err != nil {
			return nil, err
		}
	}
	// Warm-up: one cycle of the strata on instances the timed loop does not
	// see, checked like the timed ones and the same for every seed so set-up
	// costs the same.
	warm := rand.New(rand.NewPCG(0, 1))
	for i := range synthStrata {
		in, err := genSynthInput(warm, i, buses)
		if err != nil {
			return nil, err
		}
		r := synthOp(in, 0, nil, nil)
		if r.fatal == nil && r.wrong == nil && r.impossible {
			r.wrong = confirmImpossible(in)
		}
		if r.fatal != nil || r.wrong != nil {
			return nil, fmt.Errorf("warm-up: %v%v", r.fatal, r.wrong)
		}
	}
	return s, nil
}

// synthResult is opResult plus whether the run reported no architecture,
// which the oracle confirms after the timed loop.
type synthResult struct {
	opResult
	impossible bool
}

// synthOp runs Algorithm 1 on one instance and re-verifies a returned
// architecture.
func synthOp(in synthInput, req int64, tr *Tracer, lc *layerCounts) synthResult {
	ctx := context.Background()
	a0 := allocBytes()
	t0 := time.Now()
	root := tr.Start(req, 0, "op")
	sp := tr.Start(req, root.ID(), "scenariofile.parse")
	spec, err := scenariofile.ParseSynthesis(in.spec)
	sp.End()
	if err != nil {
		return synthResult{opResult: opResult{fatal: err}}
	}
	sp = tr.Start(req, root.ID(), "scenariofile.scenario")
	sreq, err := spec.Requirements()
	sp.End()
	if err != nil {
		return synthResult{opResult: opResult{fatal: err}}
	}
	sp = tr.Start(req, root.ID(), "synth.synthesize")
	arch, err := synth.SynthesizeContext(ctx, sreq)
	sp.End()
	r := synthResult{opResult: opResult{lat: time.Since(t0), alloc: allocBytes() - a0}}
	switch {
	case errors.Is(err, synth.ErrNoArchitecture):
		r.impossible = true
	case err != nil:
		r.wrong = err
	default:
		r.wrong = checkArchitecture(spec, arch.SecuredBuses)
		if r.wrong == nil {
			sp = tr.Start(req, root.ID(), "synth.recheck")
			r.wrong = recheckArchitecture(ctx, sreq.Attack, arch.SecuredBuses)
			sp.End()
		}
		if tr != nil {
			lc.archs++
			lc.iterations += arch.Iterations
			lc.selectTime += arch.SelectTime
			lc.verifyTime += arch.VerifyTime
			lc.addCheck(arch.SelectStats)
			if arch.VerifyStats.Clauses > 0 { // the screen answers most final candidates
				lc.addCheck(arch.VerifyStats)
			}
		}
	}
	root.End()
	if r.wrong != nil {
		r.wrong = fmt.Errorf("%s: %w", in.spec, r.wrong)
	}
	return r
}

// confirmImpossible re-runs an instance answered "no architecture" with the
// screen pre-filter off, a path disjoint from the screened one, and checks
// that it finds no architecture either.
func confirmImpossible(in synthInput) error {
	spec, err := scenariofile.ParseSynthesis(in.spec)
	if err != nil {
		return err
	}
	req, err := spec.Requirements()
	if err != nil {
		return err
	}
	req.NoScreen = true
	arch, err := synth.SynthesizeContext(context.Background(), req)
	switch {
	case errors.Is(err, synth.ErrNoArchitecture):
		return nil
	case err != nil:
		return fmt.Errorf("%s: confirming impossibility: %w", in.spec, err)
	default:
		return fmt.Errorf("%s: no architecture reported, but the unscreened run found %v", in.spec, arch.SecuredBuses)
	}
}

// checkArchitecture enforces the operator constraints on a returned bus set.
func checkArchitecture(spec *scenariofile.SynthesisSpec, buses []int) error {
	if len(buses) == 0 || len(buses) > spec.MaxSecuredBuses {
		return fmt.Errorf("architecture %v violates the budget %d", buses, spec.MaxSecuredBuses)
	}
	for _, b := range buses {
		for _, x := range spec.ExcludedBuses {
			if b == x {
				return fmt.Errorf("architecture %v secures excluded bus %d", buses, b)
			}
		}
	}
	return nil
}

func runSynth(cfg config) (*report, error) {
	s, setupS, err := measureSetup(func() (*synthState, error) { return setupSynth(cfg.seed) }, func(*synthState) {})
	if err != nil {
		return nil, err
	}
	tracer := newTracer()
	st, err := runClosedLoop(cfg, tracer, len(synthStrata), func(i int, tr *Tracer) opResult {
		j := i % len(s.inputs)
		r := synthOp(s.inputs[j], int64(i+1), tr, &s.layers)
		if r.impossible {
			s.impossible[j] = true
		}
		return r.opResult
	})
	if err != nil {
		return nil, err
	}
	for j := range s.impossible {
		if err := confirmImpossible(s.inputs[j]); err != nil {
			st.failed++
			if st.firstFailure == "" {
				st.firstFailure = err.Error()
			}
		}
	}
	return st.report(setupS, &s.layers, tracer), nil
}
