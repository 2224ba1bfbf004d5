package comm

import (
	"strings"
	"testing"

	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// This file pins the one serve pass (Server.serve → compute → payload.pass):
// the same bits for a row whatever request it rides in, the same error
// answers and the same budget-charge rule.

// TestCrossFormDifferential serves the same rows two ways — one request of
// K rows and K one-row requests — and requires bit-identical per-row
// features from both, at both compute precisions: a row's answer must not
// depend on the rows forwarded beside it.
func TestCrossFormDifferential(t *testing.T) {
	const nBodies = 3
	for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
		t.Run(prec.String(), func(t *testing.T) {
			f32 := prec == PrecisionF32
			srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithPrecision(prec))
			cache := srv.newBodyCache()
			// answer serves x and decodes its response off the wire (the
			// f32 wire widens exactly).
			serve := jobServer(srv, cache)
			answer := func(x *tensor.Tensor) []*tensor.Tensor {
				body, err := appendRequest(nil, &Request{Features: x}, f32, trace.Context{})
				if err != nil {
					t.Fatal(err)
				}
				j := srv.newJob()
				if err := j.pay.parse(body, &j.req, nil); err != nil {
					t.Fatal(err)
				}
				resp := serve(j)
				if resp.Err != "" {
					t.Fatal(resp.Err)
				}
				enc, err := j.pay.appendResponse(nil, resp, f32, 0)
				if err != nil {
					t.Fatal(err)
				}
				out := &Response{}
				if err := parseResponse(enc, out, nil); err != nil {
					t.Fatal(err)
				}
				return out.Features
			}
			for _, rows := range []int{2, 3, 4, 8} {
				x := wireTensor(int64(1500+rows), rows, 4, 8, 8)
				whole := answer(x)
				per := x.Size() / rows
				for r := 0; r < rows; r++ {
					row := tensor.New(1, 4, 8, 8)
					copy(row.Data, x.Data[r*per:])
					for b, want := range answer(row) {
						n := want.Size()
						got := &tensor.Tensor{Shape: want.Shape, Data: whole[b].Data[r*n : (r+1)*n]}
						if err := bitsDiffer(got, want); err != nil {
							t.Errorf("%d rows, row %d body %d: %v", rows, r, b, err)
						}
					}
				}
			}
		})
	}
}

// TestBudgetRefusalChargesNothing pins the one rule for a budget refusal:
// the guard charges once per job, and a job it refuses is answered with
// CodeBudgetExhausted, charged nothing and observed never, while the
// requests around it stay bit-exact. The middle one of three requests
// overdraws a 16-row budget; its neighbours leave more than half of it, so
// they are served clean.
func TestBudgetRefusalChargesNothing(t *testing.T) {
	const nBodies = 2
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	g, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	acct := g.AccountFor("drained")
	obs := &recordingObserver{}
	srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithBudget(g), WithObserver(obs))
	cache := srv.newBodyCache()
	exact := func(what string, j *job) {
		t.Helper()
		p := payloadOf[float64](j)
		if j.resp.Err != "" || !p.served {
			t.Fatalf("%s not served: %q", what, j.resp.Err)
		}
		for b, want := range referenceBodies(nBodies, p.input) {
			if err := bitsDiffer(p.outputs[b], want); err != nil {
				t.Errorf("%s body %d: %v", what, b, err)
			}
		}
	}

	reqs := []*job{
		jobFor(Request{Features: wireTensor(701, 1, 4, 8, 8)}),
		jobFor(Request{Features: wireTensor(702, 16, 4, 8, 8)}),
		jobFor(Request{Features: wireTensor(703, 3, 4, 8, 8)}),
	}
	for _, j := range reqs {
		j.account = acct
		srv.serve(j, cache)
		<-j.reply
	}
	if r := reqs[1]; r.resp.Code != CodeBudgetExhausted || r.resp.Err != budgetExhaustedMsg || r.pay.answered() {
		t.Errorf("overdrawing request: resp %+v served=%v, want refused with CodeBudgetExhausted", r.resp, r.pay.answered())
	}
	exact("request 0", reqs[0])
	exact("request 2", reqs[2])
	if got := ledger.Stats().Rows; got != 1+3 {
		t.Errorf("three requests charged %d rows, want the 4 of the served two", got)
	}
	if len(obs.calls) != 2 || obs.rows != 1+3 {
		t.Errorf("observer saw %d tensors of %d rows, want the 2 served requests' 4", len(obs.calls), obs.rows)
	}
}

// namedModel is a single-epoch provider whose model has a name and a
// version, so whether an answer names its epoch shows on the wire.
type namedModel struct{ staticModel }

func (m *namedModel) Resolve(string, int) (ServedModel, error) { return m, nil }
func (m *namedModel) Name() string                             { return "named" }
func (m *namedModel) Version() int                             { return 7 }

// TestErrorAnswersNameTheEpoch pins the one rule for error answers: every
// answer given after a successful resolve names the epoch. A lying input is
// refused by validation and the request served next is untouched; a request
// that passes validation but panics mid-pass is answered with the panic's
// text.
func TestErrorAnswersNameTheEpoch(t *testing.T) {
	srv := NewModelServer(&namedModel{staticModel{bodies: flatBodies()}}, WithWorkers(2))
	cache := srv.newBodyCache()
	frame := func(j *job) []byte {
		t.Helper()
		resp := <-j.reply
		if resp.Err == "" || resp.Model != "named" || resp.Version != 7 {
			t.Errorf("answer %+v: want an error naming named v7", *resp)
		}
		enc, err := j.pay.appendResponse(nil, resp, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	lying := &tensor.Tensor{Shape: []int{1, 4, 8, 8}, Data: make([]float64, 3)}

	bad := jobFor(Request{Features: lying})
	srv.serve(bad, cache)
	if want := "comm: tensor carries 3 values for shape [1 4 8 8]"; !strings.Contains(string(frame(bad)), want) {
		t.Errorf("validation failure does not read %q", want)
	}
	// The refusal left the worker's bodies as they were: the next request
	// is served bit-exactly.
	next := jobFor(Request{Features: wireTensor(715, 2, 4, 8, 8)})
	if resp := jobServer(srv, cache)(next); resp.Err != "" {
		t.Fatalf("request after the refusal failed: %s", resp.Err)
	}
	p := payloadOf[float64](next)
	ref := flatBodies()
	for b, out := range p.outputs {
		if err := bitsDiffer(out, ref[b].Forward(p.input, false)); err != nil {
			t.Errorf("request after the refusal, body %d: %v", b, err)
		}
	}

	// [.,4,4,4] clears validation and panics at the bodies' Linear.
	panicky := jobFor(Request{Features: wireTensor(712, 2, 4, 4, 4)})
	srv.serve(panicky, cache)
	if want := "comm: request failed: nn: Linear"; !strings.Contains(string(frame(panicky)), want) {
		t.Errorf("panic answer does not read %q", want)
	}
}

// TestValidateFeaturesRejectsHostileTensors covers the wire-trust boundary:
// tensors straight off the network can lie about their shape.
func TestValidateFeaturesRejectsHostileTensors(t *testing.T) {
	cases := []struct {
		name string
		f    *tensor.Tensor
	}{
		{"nil", nil},
		{"wrong rank", &tensor.Tensor{Shape: []int{2, 2}, Data: make([]float64, 4)}},
		{"zero dim", &tensor.Tensor{Shape: []int{0, 3, 8, 8}}},
		{"negative dim", &tensor.Tensor{Shape: []int{1, -3, 8, 8}, Data: nil}},
		{"shape/data mismatch", &tensor.Tensor{Shape: []int{1, 4, 8, 8}, Data: make([]float64, 5)}},
	}
	for _, tc := range cases {
		if err := validateFeatures(tc.f); err == nil {
			t.Errorf("%s: must be rejected", tc.name)
		}
	}
}
