package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"net/http"
	"testing"

	"segrid/internal/core"
	"segrid/internal/proof"
	"segrid/internal/scenariofile"
	"segrid/internal/service"
	"segrid/internal/smt"
)

// solve runs one spec through the verify path with certificate logging, the
// way verifyOp does.
func solve(t *testing.T, spec scenariofile.AttackSpec) (*core.Scenario, *core.Result, []byte) {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	var cert bytes.Buffer
	pw := proof.NewWriter(&cert)
	opts := smt.DefaultOptions()
	opts.Proof = pw
	sc.Options = &opts
	m, err := core.NewModel(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Check()
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	return sc, res, cert.Bytes()
}

var (
	unsatSpec = scenariofile.AttackSpec{Case: "ieee14", AnyState: true, MaxMeasurements: 2, MaxBuses: 1}
	satSpec   = scenariofile.AttackSpec{Case: "ieee14", Targets: []int{9}, MaxMeasurements: 12}
)

func TestOracleAcceptsCorrectAnswers(t *testing.T) {
	sc, res, cert := solve(t, unsatSpec)
	if res.Feasible || res.Inconclusive {
		t.Fatal("test scenario is not infeasible")
	}
	if err := checkVerdict(sc, res, cert, true); err != nil {
		t.Fatalf("correct infeasible answer rejected: %v", err)
	}
	sc, res, cert = solve(t, satSpec)
	if !res.Feasible {
		t.Fatal("test scenario is not feasible")
	}
	if err := checkVerdict(sc, res, cert, false); err != nil {
		t.Fatalf("correct feasible answer rejected: %v", err)
	}
}

func TestOracleRejectsFlippedVerdicts(t *testing.T) {
	// Unsat flipped to Sat: no witness replays.
	sc, res, cert := solve(t, unsatSpec)
	flipped := *res
	flipped.Feasible = true
	if checkVerdict(sc, &flipped, cert, false) == nil {
		t.Error("an infeasible answer flipped to feasible passed")
	}
	// Sat flipped to Unsat: the certificate certifies nothing.
	sc, res, cert = solve(t, satSpec)
	flipped = *res
	flipped.Feasible = false
	flipped.Proof = &proof.Handle{Check: 1}
	if checkVerdict(sc, &flipped, cert, false) == nil {
		t.Error("a feasible answer flipped to infeasible passed")
	}
}

func TestOracleRejectsCorruptedCertificate(t *testing.T) {
	sc, res, cert := solve(t, unsatSpec)
	truncated := cert[:len(cert)/2]
	if checkVerdict(sc, res, truncated, true) == nil {
		t.Error("a truncated certificate passed")
	}
	// Drop the final Unsat record: every other record still checks.
	recs, err := proof.ReadAll(bytes.NewReader(cert))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := proof.WriteAll(&buf, recs[:len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if checkVerdict(sc, res, buf.Bytes(), true) == nil {
		t.Error("a certificate without its Unsat record passed")
	}
}

func TestOracleRejectsTamperedWitness(t *testing.T) {
	sc, res, _ := solve(t, satSpec)
	for bus, v := range res.StateChanges {
		res.StateChanges[bus] = new(big.Rat).Add(v, big.NewRat(1, 7))
		break
	}
	if replayWitness(sc, res) == nil {
		t.Error("a tampered state change replayed")
	}
}

// A verify operation whose input is marked infeasible by construction fails
// when the program answers feasible, and the run counts it.
func TestVerifyOpCountsWrongVerdict(t *testing.T) {
	b, err := json.Marshal(&satSpec)
	if err != nil {
		t.Fatal(err)
	}
	good := verifyOp(verifyInput{family: "targeted", spec: b}, 1, nil, nil)
	if good.fatal != nil || good.wrong != nil {
		t.Fatalf("correct operation failed: %v %v", good.fatal, good.wrong)
	}
	bad := verifyOp(verifyInput{family: "bracket-unsat", spec: b, wantUnsat: true}, 1, nil, nil)
	if bad.wrong == nil {
		t.Fatal("feasible answer on an infeasible-by-construction input passed")
	}
}

func TestRecheckRejectsWeakArchitecture(t *testing.T) {
	spec := scenariofile.AttackSpec{Case: "ieee14", AnyState: true}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if recheckArchitecture(ctx, sc, []int{1, 3, 6, 8, 9}) != nil {
		t.Fatal("the paper's Scenario 2 architecture failed re-verification")
	}
	if recheckArchitecture(ctx, sc, []int{1, 3}) == nil {
		t.Fatal("a two-bus architecture passed re-verification")
	}
}

// The serve oracle compares each served verdict with the ground truth and
// replays served witnesses; a flipped verdict, a tampered witness and a
// rejected published certificate each count as a wrong answer.
func TestServeOracle(t *testing.T) {
	truthSvc, err := service.New(service.Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer truthSvc.Close()
	s := &serveState{keyIndex: make(map[string]int)}
	for _, spec := range []scenariofile.AttackSpec{satSpec, unsatSpec} {
		s.key(answerKey{Spec: spec})
	}
	if err := s.groundTruthWith(truthSvc); err != nil {
		t.Fatal(err)
	}
	served, err := service.New(service.Config{MaxConcurrent: 1, Screen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	for key, spec := range []scenariofile.AttackSpec{satSpec, unsatSpec} {
		resp, err := served.Verify(context.Background(), &service.VerifyRequest{Attack: spec})
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		req := serveReq{kind: "verify", keys: []int{key}}
		if o, err := s.check(req, reqResult{status: http.StatusOK, body: body}); o != outcomeOK {
			t.Fatalf("correct served answer for %+v: %s %v", spec, o, err)
		}
		flipped := *resp
		flipped.Status = map[string]string{"feasible": "infeasible", "infeasible": "feasible"}[resp.Status]
		body, _ = json.Marshal(&flipped)
		if o, _ := s.check(req, reqResult{status: http.StatusOK, body: body}); o != outcomeWrong {
			t.Errorf("flipped served verdict for %+v: %s, want %s", spec, o, outcomeWrong)
		}
		if resp.Status == "feasible" {
			tampered := *resp
			tampered.AlteredMeasurements = append([]int{}, resp.AlteredMeasurements[1:]...)
			body, _ = json.Marshal(&tampered)
			if o, _ := s.check(req, reqResult{status: http.StatusOK, body: body}); o != outcomeWrong {
				t.Errorf("tampered served witness: %s, want %s", o, outcomeWrong)
			}
		}
	}
	body, _ := json.Marshal(&service.ProofCheckResponse{Valid: false, Error: "record 3: bad Farkas"})
	if o, _ := s.check(serveReq{kind: "proofcheck"}, reqResult{status: http.StatusOK, body: body}); o != outcomeWrong {
		t.Errorf("rejected certificate: %s, want %s", o, outcomeWrong)
	}
	if o, _ := s.check(serveReq{kind: "verify", keys: []int{0}}, reqResult{status: http.StatusTooManyRequests}); o != outcomeShed {
		t.Errorf("429: %s, want %s", o, outcomeShed)
	}
}
