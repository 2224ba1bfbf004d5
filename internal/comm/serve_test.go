package comm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ensembler/internal/faultpoint"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// This file pins the one serve pass (Server.serve → compute → payload.pass)
// across the request forms it serves: plain and client-batched requests must
// get the same bits, the same error answers and the same budget-charge rule.

// TestCrossFormDifferential serves the same rows two ways — K plain requests
// and one client-batched request of K inputs — and requires bit-identical
// per-row features from both, at both compute precisions: stacking rows into
// one pass, or forwarding a lone input where it was decoded, must not change
// a bit of any row's answer.
func TestCrossFormDifferential(t *testing.T) {
	const nBodies = 3
	for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
		t.Run(prec.String(), func(t *testing.T) {
			f32 := prec == PrecisionF32
			srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithPrecision(prec))
			cache := srv.newBodyCache()
			// answer serves req and decodes its response off the wire (the
			// f32 wire widens exactly).
			serve := jobServer(srv, cache)
			answer := func(req *Request) *Response {
				body, err := appendRequest(nil, req, f32, trace.Context{})
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
				return out
			}
			for _, rows := range [][]int{{1, 2}, {2, 3}, {1, 1}, {4, 4}} {
				inputs := make([]*tensor.Tensor, len(rows))
				plain := make([]*Request, len(rows))
				for i, r := range rows {
					inputs[i] = wireTensor(int64(1500+10*r+i), r, 4, 8, 8)
					plain[i] = &Request{Features: inputs[i]}
				}
				batched := answer(&Request{Inputs: inputs}).Outputs
				for i, req := range plain {
					for b, want := range answer(req).Features {
						if err := bitsDiffer(batched[i][b], want); err != nil {
							t.Errorf("rows %v input %d body %d: client-batched %v", rows, i, b, err)
						}
					}
				}
			}
		})
	}
}

// TestBudgetChargeFaultSite pins the one rule for the comm/budget-charge
// site: a guarded server consults it once per job, and a job it refuses is
// answered with the fault's error, charged nothing and observed never, while
// the requests around it stay bit-exact. An unguarded server has no
// verdict to fail, so it never consults the site at all.
func TestBudgetChargeFaultSite(t *testing.T) {
	defer faultpoint.DisableAll()
	const nBodies = 2
	const site = "comm/budget-charge"
	ledgerDown := errors.New("ledger unreachable")
	g := benchGuard(t)
	acct := g.AccountFor("fault")
	obs := &recordingObserver{}
	srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithBudget(g), WithObserver(obs))
	cache := srv.newBodyCache()
	serve := func(jobs ...*job) {
		for _, j := range jobs {
			j.account = acct
			srv.serve(j, cache)
			<-j.reply
		}
	}
	refused := func(what string, j *job) {
		t.Helper()
		if j.resp.Err != ledgerDown.Error() || j.pay.answered() {
			t.Errorf("%s: resp %+v served=%v, want refused with the fault's error", what, j.resp, j.pay.answered())
		}
	}
	exact := func(what string, j *job) {
		t.Helper()
		p := payloadOf[float64](j)
		if j.resp.Err != "" || !p.served {
			t.Fatalf("%s not served: %q", what, j.resp.Err)
		}
		for b, want := range referenceBodies(nBodies, p.inputs[0]) {
			if err := bitsDiffer(p.outputs[0][b], want); err != nil {
				t.Errorf("%s body %d: %v", what, b, err)
			}
		}
	}
	rowsCharged := func() uint64 { return g.Ledger().Stats().Rows }

	// A plain request, refused.
	faultpoint.Enable(site, faultpoint.Policy{Err: ledgerDown, Count: 1})
	plain := jobFor(Request{Features: wireTensor(700, 2, 4, 8, 8)})
	serve(plain)
	refused("plain request", plain)
	if got := rowsCharged(); got != 0 {
		t.Errorf("refused plain request charged %d rows", got)
	}
	if len(obs.calls) != 0 {
		t.Errorf("refused plain request observed %d times", len(obs.calls))
	}

	// The middle one of three requests, refused; its neighbours served.
	faultpoint.Enable(site, faultpoint.Policy{Err: ledgerDown, After: 1, Count: 1})
	reqs := []*job{
		jobFor(Request{Features: wireTensor(701, 1, 4, 8, 8)}),
		jobFor(Request{Features: wireTensor(702, 2, 4, 8, 8)}),
		jobFor(Request{Features: wireTensor(703, 3, 4, 8, 8)}),
	}
	serve(reqs...)
	refused("request 1", reqs[1])
	exact("request 0", reqs[0])
	exact("request 2", reqs[2])
	if got := rowsCharged(); got != 1+3 {
		t.Errorf("three requests charged %d rows, want the 4 of the served two", got)
	}
	if len(obs.calls) != 2 || obs.rows != 1+3 {
		t.Errorf("observer saw %d tensors of %d rows, want the 2 served requests' 4", len(obs.calls), obs.rows)
	}

	// An unguarded server ignores the armed site.
	faultpoint.Enable(site, faultpoint.Policy{Err: ledgerDown})
	bare := NewServer(codecBodies(nBodies))
	j := jobFor(Request{Features: wireTensor(704, 1, 4, 8, 8)})
	jobServer(bare, bare.newBodyCache())(j)
	exact("unguarded request", j)
	for _, st := range faultpoint.SiteStats() {
		if st.Name == site && st.Hits != 0 {
			t.Errorf("unguarded server consulted %s %d times", site, st.Hits)
		}
	}
}

// namedModel is a single-epoch provider whose model has a name and a
// version, so whether an answer names its epoch shows on the wire.
type namedModel struct{ staticModel }

func (m *namedModel) Resolve(string, int) (ServedModel, error) { return m, nil }
func (m *namedModel) Name() string                             { return "named" }
func (m *namedModel) Version() int                             { return 7 }

// TestErrorAnswersNameTheEpoch pins the one rule for error answers: every
// answer given after a successful resolve names the epoch, in the same text
// whatever form the request took. A lying input gets byte-identical response
// frames plain and inside a client-batched request, and the request served
// next is untouched; so does a request that passes validation but panics
// mid-pass — whose panic text names the pass's stacked shape, so the plain
// request carries the batched request's rows.
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

	alone := jobFor(Request{Features: lying})
	srv.serve(alone, cache)
	bad := jobFor(Request{Inputs: []*tensor.Tensor{wireTensor(710, 1, 4, 8, 8), lying, wireTensor(711, 2, 4, 8, 8)}})
	srv.serve(bad, cache)
	if plain, batched := frame(alone), frame(bad); !bytes.Equal(plain, batched) {
		t.Errorf("validation failure answered differently:\nplain   %q\nbatched %q", plain, batched)
	}
	// The refusal left the worker's bodies as they were: the next request
	// is served bit-exactly.
	next := jobFor(Request{Features: wireTensor(715, 2, 4, 8, 8)})
	if resp := jobServer(srv, cache)(next); resp.Err != "" {
		t.Fatalf("request after the refusal failed: %s", resp.Err)
	}
	p := payloadOf[float64](next)
	ref := flatBodies()
	for b, out := range p.outputs[0] {
		if err := bitsDiffer(out, ref[b].Forward(p.inputs[0], false)); err != nil {
			t.Errorf("request after the refusal, body %d: %v", b, err)
		}
	}

	// [.,4,4,4] clears validation and panics at the bodies' Linear.
	alone = jobFor(Request{Features: wireTensor(712, 2, 4, 4, 4)})
	srv.serve(alone, cache)
	pair := jobFor(Request{Inputs: []*tensor.Tensor{wireTensor(713, 1, 4, 4, 4), wireTensor(714, 1, 4, 4, 4)}})
	srv.serve(pair, cache)
	plain := frame(alone)
	if batched := frame(pair); !bytes.Equal(plain, batched) {
		t.Errorf("mid-pass panic answered differently:\nplain   %q\nbatched %q", plain, batched)
	}
	if want := "comm: request failed: nn: Linear"; !strings.Contains(string(plain), want) {
		t.Errorf("panic answer %q does not read %q", plain, want)
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

// TestValidateRejectsMixedBatches pins that a client-batched request whose
// inputs disagree on [C,H,W] cannot stack, with the error text a client sees.
func TestValidateRejectsMixedBatches(t *testing.T) {
	mixed := jobFor(Request{Inputs: []*tensor.Tensor{wireTensor(720, 2, 4, 8, 8), wireTensor(721, 1, 4, 4, 8)}})
	err := payloadOf[float64](mixed).validate(DefaultMaxBatch)
	if want := "comm: batched inputs disagree on feature shape: [4 8 8] vs [4 4 8]"; err == nil || err.Error() != want {
		t.Errorf("mixed batch: %v, want %q", err, want)
	}
}
