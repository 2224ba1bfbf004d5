package main

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

func TestPrivacyFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-privacy-budget-rows", "-1"}, "-privacy-budget-rows"},
		// A fractional budget is an old ε invocation: refused at parse.
		{[]string{"-privacy-budget-rows", "1.5"}, "-privacy-budget-rows"},
		{[]string{"-privacy-budget", "1"}, "-privacy-budget"},
		{[]string{"-privacy-policy", "frobnicate"}, "-privacy-policy"},
	}
	for _, c := range cases {
		err := run(ctx, c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestServePrivacyBudgetSurface wires a budgeted server end to end through
// the operator surface: the serving banner announces the ledger, a served
// request lands in the client's account, /budget reports the account and the
// accounting configuration, /metrics exports the ensembler_privacy_ series,
// and /healthz flips budget_enabled.
func TestServePrivacyBudgetSurface(t *testing.T) {
	dir, reg := publishTiny(t, 0)
	e, err := reg.Current("tiny")
	if err != nil {
		t.Fatal(err)
	}
	pipeline := e.Pipeline()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-privacy-budget-rows", "64",
	})
	addr := scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	banner := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.Contains(sc.Text(), "privacy budget") {
				select {
				case banner <- sc.Text():
				default:
				}
			}
		}
	}()

	client, err := comm.Dial(addr, comm.WithClientID("did:ex:probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rt := pipeline.NewClientRuntime()
	client.ComputeFeatures = rt.Features
	client.Select = rt.Select
	client.Tail = rt.Tail
	arch := commtest.TinyArch()
	x := tensor.New(1, arch.InC, arch.H, arch.W)
	rng.New(3).FillNormal(x.Data, 0, 1)
	want := pipeline.Predict(x)
	logits, _, err := client.Infer(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	// A far-from-drained account is served bit-exact: no escalation noise.
	if !logits.AllClose(want, 1e-9) {
		t.Error("budgeted serving perturbed a healthy client's response")
	}

	select {
	case line := <-banner:
		if !strings.Contains(line, "64 rows per client") || !strings.Contains(line, "enforced") {
			t.Errorf("privacy banner %q missing budget/mode", line)
		}
	case <-time.After(5 * time.Second):
		t.Error("no privacy-budget banner line")
	}

	code, body := adminGet(t, admin+"/budget")
	if code != 200 {
		t.Fatalf("/budget = %d %q", code, body)
	}
	var budget struct {
		Enabled bool `json:"enabled"`
		Observe bool `json:"observe"`
		Stats   struct {
			Clients    int    `json:"clients"`
			Rows       uint64 `json:"rows_charged"`
			BudgetRows int64  `json:"budget_rows"`
		} `json:"stats"`
		Clients []struct {
			Client    string `json:"client"`
			Spent     int64  `json:"spent_rows"`
			Remaining int64  `json:"remaining_rows"`
		} `json:"clients"`
	}
	if err := json.Unmarshal([]byte(body), &budget); err != nil {
		t.Fatalf("/budget is not JSON: %v\n%s", err, body)
	}
	if !budget.Enabled || budget.Observe {
		t.Errorf("/budget enabled=%v observe=%v, want enforcing ledger", budget.Enabled, budget.Observe)
	}
	if budget.Stats.BudgetRows != 64 {
		t.Errorf("/budget stats = %+v, want a 64-row budget", budget.Stats)
	}
	if budget.Stats.Clients != 1 || budget.Stats.Rows != 1 {
		t.Errorf("/budget stats = %+v, want 1 client and 1 charged row", budget.Stats)
	}
	if len(budget.Clients) != 1 || budget.Clients[0].Client != "did:ex:probe" ||
		budget.Clients[0].Spent != 1 || budget.Clients[0].Remaining != 63 {
		t.Errorf("/budget clients = %+v, want the declared-ID account with 1 row spent, 63 left", budget.Clients)
	}

	if code, body := adminGet(t, admin+"/metrics"); code != 200 ||
		!strings.Contains(body, "ensembler_privacy_budget_rows 64") ||
		!strings.Contains(body, "ensembler_privacy_clients 1") ||
		!strings.Contains(body, "ensembler_privacy_rows_charged_total 1") ||
		!strings.Contains(body, "ensembler_privacy_observe 0") ||
		!strings.Contains(body, "ensembler_privacy_worst_drained 0.015625") || // 1 of 64 rows
		!strings.Contains(body, "ensembler_privacy_refusals_total 0") {
		t.Errorf("/metrics missing privacy series: %d %q", code, body)
	}
	if code, body := adminGet(t, admin+"/healthz"); code != 200 ||
		!strings.Contains(body, `"budget_enabled": true`) {
		t.Errorf("/healthz = %d %q, want budget_enabled true", code, body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

// Without -privacy-budget-rows the endpoint must report a disabled ledger.
func TestBudgetEndpointDisabledByDefault(t *testing.T) {
	dir, _ := publishTiny(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
	})
	scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()
	if code, body := adminGet(t, admin+"/budget"); code != 200 || !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/budget without a ledger = %d %q", code, body)
	}
	if code, body := adminGet(t, admin+"/healthz"); code != 200 ||
		!strings.Contains(body, `"budget_enabled": false`) {
		t.Errorf("/healthz = %d %q, want budget_enabled false", code, body)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}
