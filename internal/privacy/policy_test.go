package privacy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// ladderGuard builds a guard over a ten-row budget: noise from 5 rows left,
// doubled noise from 2, refusal at 0.
func ladderGuard(t *testing.T, cfg PolicyConfig) *Guard {
	t.Helper()
	l, err := NewLedger(LedgerConfig{BudgetRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGuardConfigValidation(t *testing.T) {
	if _, err := NewGuard(nil, PolicyConfig{}); err == nil {
		t.Fatal("guard without a ledger must fail")
	}
}

// TestEscalationLadder walks one heavy client through the full ladder:
// clean service, base noise at half budget, doubled noise at the heavy-noise
// threshold, then refusals at exhaustion. A request that does not fit what
// is left is refused without latching: a smaller one after it is still
// served.
func TestEscalationLadder(t *testing.T) {
	g := ladderGuard(t, PolicyConfig{})
	a := g.AccountFor("heavy")

	clean, noise, heavy, refuse := Verdict{}, Verdict{Sigma: NoiseSigma}, Verdict{Sigma: 2 * NoiseSigma}, Verdict{Refuse: true}
	steps := []struct {
		rows int
		want Verdict
	}{
		{1, clean}, {1, clean}, {1, clean}, {1, clean}, // 9 … 6 left
		{1, noise}, {1, noise}, {1, noise}, // 5 … 3 left
		{1, heavy},             // 2 left: the noise doubles
		{4, refuse},            // does not fit the 2 left, costs nothing
		{1, heavy}, {1, heavy}, // served after the refusal: 1, 0 left
		{1, refuse}, {1, refuse}, // exhausted
	}
	for i, s := range steps {
		if v := g.Charge(a, s.rows); v != s.want {
			t.Fatalf("step %d (%d rows): verdict %+v, want %+v", i+1, s.rows, v, s.want)
		}
	}
	if g.Refusals() != 3 || g.Noised() != 6 {
		t.Fatalf("counters: refusals=%d noised=%d, want 3, 6", g.Refusals(), g.Noised())
	}
	if cb := g.Ledger().Snapshot()[0]; cb.Level != LevelRefused || cb.Refusals != 3 || cb.Spent != 10 {
		t.Fatalf("account state %+v, want refused level, 3 refusals, 10 rows spent", cb)
	}
}

// TestLightClientsUnaffected: a second client on the same guard drains its
// own budget, not the heavy client's.
func TestLightClientsUnaffected(t *testing.T) {
	g := ladderGuard(t, PolicyConfig{})
	heavy := g.AccountFor("heavy")
	light := g.AccountFor("light")
	for i := 0; i < 20; i++ {
		g.Charge(heavy, 1)
	}
	if v := g.Charge(light, 1); v.Refuse || v.Sigma != 0 {
		t.Fatalf("light client verdict %+v after heavy exhaustion, want clean", v)
	}
}

// TestObserveModeNeverActs: accounting-only mode drains budgets for the
// admin plane but never noises or refuses.
func TestObserveModeNeverActs(t *testing.T) {
	g := ladderGuard(t, PolicyConfig{Observe: true})
	a := g.AccountFor("heavy")
	for i := 0; i < 30; i++ {
		if v := g.Charge(a, 1); v.Refuse || v.Sigma != 0 {
			t.Fatalf("observe-mode verdict %+v, want clean service", v)
		}
	}
	if !g.Observing() {
		t.Fatal("Observing() = false")
	}
	if g.Refusals() != 0 || g.Noised() != 0 {
		t.Fatalf("observe mode acted: refusals=%d noised=%d", g.Refusals(), g.Noised())
	}
	// Every served row is counted; the drain is reported clamped at the
	// full budget.
	cb := g.Ledger().Snapshot()[0]
	if cb.Spent != 30 || cb.Drained != 1 || cb.Remaining != 0 {
		t.Fatalf("observed drain %+v, want 30 rows spent, fully drained", cb)
	}
}

// TestChargeSteadyStateDoesNotAllocate pins the guard's cost contract: a
// charge on a healthy account is atomics only — the property that keeps the
// serving loop at 0 allocs/op with the ledger enabled.
func TestChargeSteadyStateDoesNotAllocate(t *testing.T) {
	l, err := NewLedger(LedgerConfig{BudgetRows: 1e15})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(l, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a := g.AccountFor("steady")
	if allocs := testing.AllocsPerRun(200, func() { g.Charge(a, 4) }); allocs != 0 {
		t.Fatalf("Charge allocated %v times per run, want 0", allocs)
	}
	// The noised regime is just as clean: drain into the noise band first.
	b := g.AccountFor("noisy")
	b.spent.Store(6e14)
	if allocs := testing.AllocsPerRun(200, func() { g.Charge(b, 1) }); allocs != 0 {
		t.Fatalf("noised Charge allocated %v times per run, want 0", allocs)
	}
	if g.Noised() == 0 {
		t.Fatal("the noised regime was never reached")
	}
}

// TestGuardConcurrentLadderRace drives many goroutines through every rung of
// the ladder on a few shared accounts under -race, charging mixed row counts
// long past exhaustion, and checks that the ledger conserves rows: each
// account's spent rows are exactly the rows it was served, the accounts sum
// to the ledger's total, and none exceeds its budget.
func TestGuardConcurrentLadderRace(t *testing.T) {
	const budget, accounts = 1000, 3
	l, err := NewLedger(LedgerConfig{BudgetRows: budget, MaxClients: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(l, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var accts [accounts]*Account
	var served [accounts]atomic.Int64
	for i := range accts {
		accts[i] = g.AccountFor(fmt.Sprintf("contended-%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k, rows := (w+i)%accounts, 1+(w+i/accounts)%4
				if v := g.Charge(accts[k], rows); !v.Refuse {
					served[k].Add(int64(rows))
				}
			}
		}(w)
	}
	wg.Wait()

	var sum int64
	for _, cb := range l.Snapshot() {
		sum += cb.Spent
	}
	if st := l.Stats(); uint64(sum) != st.Rows || st.Evictions != 0 {
		t.Fatalf("accounts sum to %d rows, ledger charged %d (evictions %d)", sum, st.Rows, st.Evictions)
	}
	for k, a := range accts {
		if a.Spent() != served[k].Load() || a.Spent() > budget {
			t.Errorf("account %d spent %d rows, served %d, budget %d", k, a.Spent(), served[k].Load(), budget)
		}
		if v := g.Charge(a, 1); !v.Refuse {
			t.Errorf("account %d must end exhausted; got %+v (spent %d)", k, v, a.Spent())
		}
	}
	if g.Refusals() == 0 {
		t.Fatal("concurrent drain recorded no refusals")
	}
}
