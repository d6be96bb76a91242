package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"segrid/internal/baseline"
	"segrid/internal/core"
	"segrid/internal/proof"
)

// The oracles below decide whether an answer is right without trusting the
// path that produced it: a Sat verdict must carry a witness that replays
// exactly, an Unsat verdict a certificate the independent checker accepts,
// a synthesized architecture must defend on re-verification, and a served
// verdict must equal the ground truth computed at set-up.

// replayWitness recomputes the measurement changes a feasible result implies
// with exact rationals and checks them against the scenario: the altered set
// is exactly the support over taken measurements, every altered measurement is
// accessible and unsecured, the compromised buses are exactly their home
// buses, both resource bounds hold, and the attack goal is met.
func replayWitness(sc *core.Scenario, res *core.Result) error {
	if !res.Feasible {
		return errors.New("witness replay: result is not feasible")
	}
	deltas, err := core.ExactMeasurementDeltas(sc, res)
	if err != nil {
		return fmt.Errorf("witness replay: %w", err)
	}
	sys := sc.System()
	meas := sc.Meas
	var support []int
	buses := make(map[int]bool)
	for id := 1; id <= sys.NumMeasurements(); id++ {
		if !meas.Taken[id] || deltas[id].Sign() == 0 {
			continue
		}
		if !meas.Accessible[id] || meas.Secured[id] {
			return fmt.Errorf("witness replay: measurement %d must change but is secured or inaccessible", id)
		}
		support = append(support, id)
		home, err := sys.HomeBus(id)
		if err != nil {
			return fmt.Errorf("witness replay: %w", err)
		}
		buses[home] = true
	}
	if !equalInts(support, res.AlteredMeasurements) {
		return fmt.Errorf("witness replay: altered measurements %v, replay needs %v", res.AlteredMeasurements, support)
	}
	busList := make([]int, 0, len(buses))
	for b := range buses {
		busList = append(busList, b)
	}
	sort.Ints(busList)
	if !equalInts(busList, res.CompromisedBuses) {
		return fmt.Errorf("witness replay: compromised buses %v, replay needs %v", res.CompromisedBuses, busList)
	}
	if k := sc.MaxAlteredMeasurements; k > 0 && len(support) > k {
		return fmt.Errorf("witness replay: %d altered measurements exceed the bound %d", len(support), k)
	}
	if k := sc.MaxCompromisedBuses; k > 0 && len(busList) > k {
		return fmt.Errorf("witness replay: %d compromised buses exceed the bound %d", len(busList), k)
	}
	changed := func(bus int) bool {
		c, ok := res.StateChanges[bus]
		return ok && c.Sign() != 0
	}
	for _, t := range sc.TargetStates {
		if !changed(t) {
			return fmt.Errorf("witness replay: target state %d is unchanged", t)
		}
	}
	for _, u := range sc.UntouchedStates {
		if changed(u) {
			return fmt.Errorf("witness replay: state %d must stay unchanged", u)
		}
	}
	if sc.OnlyTargets {
		targets := make(map[int]bool)
		for _, t := range sc.TargetStates {
			targets[t] = true
		}
		for bus := range res.StateChanges {
			if changed(bus) && !targets[bus] {
				return fmt.Errorf("witness replay: non-target state %d changed", bus)
			}
		}
	}
	if sc.AnyState {
		any := false
		for bus := range res.StateChanges {
			any = any || changed(bus)
		}
		if !any {
			return errors.New("witness replay: no state changed")
		}
	}
	if changed(sc.RefBus) {
		return errors.New("witness replay: reference state changed")
	}
	return nil
}

// checkCertificate runs the independent proof checker over an in-memory
// certificate stream, which must certify the result's Unsat check.
func checkCertificate(res *core.Result, cert []byte) error {
	if res.Feasible || res.Inconclusive {
		return errors.New("certificate: result is not infeasible")
	}
	if res.Proof == nil {
		return errors.New("certificate: infeasible result carries no certificate")
	}
	rep, err := proof.Check(bytes.NewReader(cert))
	if err != nil {
		return fmt.Errorf("certificate rejected: %w", err)
	}
	if uint64(rep.UnsatChecks) < res.Proof.Check {
		return fmt.Errorf("certificate holds %d unsat checks, the verdict cites check %d", rep.UnsatChecks, res.Proof.Check)
	}
	return nil
}

// checkVerdict applies the witness or certificate oracle to one verification
// answer; wantUnsat marks inputs that are infeasible by construction.
func checkVerdict(sc *core.Scenario, res *core.Result, cert []byte, wantUnsat bool) error {
	switch {
	case res.Inconclusive:
		return fmt.Errorf("inconclusive verdict: %v", res.Why)
	case res.Feasible && wantUnsat:
		return errors.New("feasible verdict on an input that is infeasible by construction")
	case res.Feasible:
		return replayWitness(sc, res)
	default:
		return checkCertificate(res, cert)
	}
}

// recheckArchitecture re-verifies a synthesized bus set independently of the
// synthesis loop: the rank test of the secured measurements settles most sets
// without a solver; otherwise a fresh attack model with the buses secured
// must be infeasible.
func recheckArchitecture(ctx context.Context, attack *core.Scenario, buses []int) error {
	sc := *attack
	sc.Meas = attack.Meas.Clone()
	sc.Options = nil
	for _, b := range buses {
		if err := sc.Meas.SecureBus(b); err != nil {
			return fmt.Errorf("recheck: %w", err)
		}
	}
	ok, err := baseline.ProtectsAllStates(sc.Meas, sc.RefBus)
	if err != nil {
		return fmt.Errorf("recheck: %w", err)
	}
	if ok {
		return nil
	}
	m, err := core.NewModelContext(ctx, &sc)
	if err != nil {
		return fmt.Errorf("recheck: %w", err)
	}
	res, err := m.CheckContext(ctx)
	if err != nil {
		return fmt.Errorf("recheck: %w", err)
	}
	if res.Inconclusive {
		return fmt.Errorf("recheck: inconclusive (%v)", res.Why)
	}
	if res.Feasible {
		return fmt.Errorf("recheck: architecture %v is defeated by an attack on measurements %v", buses, res.AlteredMeasurements)
	}
	return nil
}

// resultFromWire rebuilds the attack vector of a served feasible verdict so
// the witness can be replayed. Served verdicts carry no topology flow deltas,
// so only attacks without topology poisoning can be replayed.
func resultFromWire(altered, compromised, excluded, included []int, states map[string]string) (*core.Result, error) {
	if len(excluded) > 0 || len(included) > 0 {
		return nil, errors.New("served witness has topology poisoning, which the wire format cannot replay")
	}
	res := &core.Result{
		Feasible:            true,
		AlteredMeasurements: altered,
		CompromisedBuses:    compromised,
		StateChanges:        make(map[int]*big.Rat, len(states)),
	}
	for k, v := range states {
		var bus int
		if _, err := fmt.Sscanf(k, "%d", &bus); err != nil {
			return nil, fmt.Errorf("served witness: bad bus %q", k)
		}
		r, ok := new(big.Rat).SetString(v)
		if !ok {
			return nil, fmt.Errorf("served witness: bad state change %q", v)
		}
		res.StateChanges[bus] = r
	}
	return res, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
