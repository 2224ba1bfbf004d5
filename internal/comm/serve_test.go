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
// across the request forms it serves: plain, client-batched and coalesced
// requests must get the same bits, the same error answers and the same
// budget-charge rule.

// TestCrossFormDifferential serves the same rows three ways — K plain
// requests, one client-batched request of K inputs, and one K-job coalesced
// batch — and requires bit-identical per-row features from all three, at
// both compute precisions: stacking rows into one pass, or forwarding a lone
// input where it was decoded, must not change a bit of any row's answer.
func TestCrossFormDifferential(t *testing.T) {
	const nBodies = 3
	for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
		t.Run(prec.String(), func(t *testing.T) {
			f32 := prec == PrecisionF32
			srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithPrecision(prec))
			cache := srv.newBodyCache()
			// answer serves reqs as one pass, one job each, and decodes every
			// response off the wire (the f32 wire widens exactly).
			answer := func(reqs ...*Request) []*Response {
				jobs := make([]*job, len(reqs))
				for i, req := range reqs {
					body, err := appendRequest(nil, req, f32, trace.Context{})
					if err != nil {
						t.Fatal(err)
					}
					jobs[i] = srv.newJob()
					if err := jobs[i].pay.parse(body, &jobs[i].req, nil); err != nil {
						t.Fatal(err)
					}
				}
				srv.serve(jobs, cache)
				out := make([]*Response, len(jobs))
				for i, j := range jobs {
					resp := <-j.reply
					if resp.Err != "" {
						t.Fatal(resp.Err)
					}
					enc, err := j.pay.appendResponse(nil, resp, f32, 0)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = &Response{}
					if err := parseResponse(enc, out[i], nil); err != nil {
						t.Fatal(err)
					}
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
				batched := answer(&Request{Inputs: inputs})[0].Outputs
				coalesced := answer(plain...)
				for i, req := range plain {
					separate := answer(req)[0].Features
					for b, want := range separate {
						if err := bitsDiffer(batched[i][b], want); err != nil {
							t.Errorf("rows %v input %d body %d: client-batched %v", rows, i, b, err)
						}
						if err := bitsDiffer(coalesced[i].Features[b], want); err != nil {
							t.Errorf("rows %v input %d body %d: coalesced %v", rows, i, b, err)
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
// the other members of its pass stay bit-exact. An unguarded server has no
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
		}
		srv.serve(jobs, cache)
		for _, j := range jobs {
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

	// The middle member of a coalesced batch, refused; its neighbours served.
	faultpoint.Enable(site, faultpoint.Policy{Err: ledgerDown, After: 1, Count: 1})
	members := []*job{
		jobFor(Request{Features: wireTensor(701, 1, 4, 8, 8)}),
		jobFor(Request{Features: wireTensor(702, 2, 4, 8, 8)}),
		jobFor(Request{Features: wireTensor(703, 3, 4, 8, 8)}),
	}
	serve(members...)
	refused("coalesced member 1", members[1])
	exact("coalesced member 0", members[0])
	exact("coalesced member 2", members[2])
	if got := rowsCharged(); got != 1+3 {
		t.Errorf("coalesced batch charged %d rows, want the 4 of its served members", got)
	}
	if len(obs.calls) != 2 || obs.rows != 1+3 {
		t.Errorf("observer saw %d tensors of %d rows, want the 2 served members' 4", len(obs.calls), obs.rows)
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
// whatever form the request took. A malformed request gets byte-identical
// response frames plain and as a coalesced member; so does a request that
// passes validation but panics mid-pass — whose panic text names the pass's
// stacked shape, so the plain request carries the coalesced batch's rows.
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
	srv.serve([]*job{alone}, cache)
	good, bad, good2 := jobFor(Request{Features: wireTensor(710, 1, 4, 8, 8)}),
		jobFor(Request{Features: lying}), jobFor(Request{Features: wireTensor(711, 2, 4, 8, 8)})
	srv.serve([]*job{good, bad, good2}, cache)
	if plain, member := frame(alone), frame(bad); !bytes.Equal(plain, member) {
		t.Errorf("validation failure answered differently:\nplain     %q\ncoalesced %q", plain, member)
	}
	for _, j := range []*job{good, good2} {
		if resp := <-j.reply; resp.Err != "" {
			t.Errorf("valid member failed: %s", resp.Err)
		}
	}

	// [.,4,4,4] clears validation and panics at the bodies' Linear.
	alone = jobFor(Request{Features: wireTensor(712, 2, 4, 4, 4)})
	srv.serve([]*job{alone}, cache)
	m1, m2 := jobFor(Request{Features: wireTensor(713, 1, 4, 4, 4)}), jobFor(Request{Features: wireTensor(714, 1, 4, 4, 4)})
	srv.serve([]*job{m1, m2}, cache)
	plain := frame(alone)
	for i, j := range []*job{m1, m2} {
		if member := frame(j); !bytes.Equal(plain, member) {
			t.Errorf("mid-pass panic answered member %d differently:\nplain     %q\ncoalesced %q", i, plain, member)
		}
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
