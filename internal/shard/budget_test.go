package shard_test

import (
	"context"
	"errors"
	"testing"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/privacy"
	"ensembler/internal/shard"
)

// TestBudgetRefusalIsAnAnswer: a shard's privacy-budget refusal is the shard
// answering, not failing. Two shards share one 2-row guard, and every shard
// charges the same address account, so the first one-row request drains it.
// Every later request must reach each shard once — a drained budget does not
// refill, so a retry only burns a refusal — report comm.ErrBudgetExhausted,
// not ErrBreakerOpen, and leave both healthy shards' circuits closed.
func TestBudgetRefusalIsAnAnswer(t *testing.T) {
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := commtest.StartShards(t, 2, 4, 2, 67, comm.WithBudget(guard))
	c, err := shard.NewClient(f.ClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x := imageBatch(1, 68)
	refused := 0
	for i := 1; i <= 8; i++ {
		_, _, err := c.Infer(context.Background(), x)
		switch {
		case i == 1 && err != nil:
			t.Fatalf("request 1 fits the budget: %v", err)
		case i > 1 && !errors.Is(err, comm.ErrBudgetExhausted):
			t.Fatalf("request %d returned %v, want comm.ErrBudgetExhausted", i, err)
		case err != nil:
			refused++
		}
	}
	if got, want := guard.Refusals(), uint64(2*refused); got != want {
		t.Errorf("guard counted %d refusals for %d refused requests over 2 shards, want %d: one per shard, no retry", got, refused, want)
	}
	for k, h := range c.Health() {
		if h.Breaker != shard.BreakerClosed || h.Failures != 0 || h.ShortCircuits != 0 {
			t.Errorf("shard %d was charged for refusals: %+v", k, h)
		}
	}
}
