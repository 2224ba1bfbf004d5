package privacy

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic Now hook.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestLedgerConfigValidation(t *testing.T) {
	bad := []LedgerConfig{
		{},               // no budget
		{BudgetRows: -1}, // negative budget
		{BudgetEps: 1},   // shim budget without a per-row charge
	}
	for i, cfg := range bad {
		if _, err := NewLedger(cfg); err == nil {
			t.Fatalf("config %d: expected error, got none", i)
		}
	}
}

func TestLedgerDefaultsAndCharge(t *testing.T) {
	l, err := NewLedger(LedgerConfig{BudgetRows: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.BudgetRows != 20 || st.MaxClients != DefaultMaxClients {
		t.Fatalf("stats %+v, want a 20-row budget and the default capacity %d", st, DefaultMaxClients)
	}

	a := l.AccountFor("client-a")
	if a != l.AccountFor("client-a") {
		t.Fatal("AccountFor must return a stable account per identity")
	}
	if a == l.AccountFor("client-b") {
		t.Fatal("distinct identities must get distinct accounts")
	}
	if a.ID() != "client-a" {
		t.Fatalf("account ID = %q", a.ID())
	}
	if spent, ok := l.debit(a, 3); !ok || spent != 3 || a.Spent() != 3 {
		t.Fatalf("debit = (%d, %v), Spent %d; want (3, true), 3", spent, ok, a.Spent())
	}

	// The benchmark shim budgets BudgetEps/QueryEps rows and ignores the
	// secret fraction.
	for _, c := range []struct {
		cfg  LedgerConfig
		want int64
	}{
		{LedgerConfig{BudgetEps: 1e6, QueryEps: 1e-3, SecretFraction: 0.4}, 1e9},
		{LedgerConfig{BudgetEps: 1e6, QueryEps: 1e-9}, 1e15},
	} {
		l, err := NewLedger(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().BudgetRows; got != c.want {
			t.Errorf("shim %+v budgets %d rows, want %d", c.cfg, got, c.want)
		}
	}
}

func TestLedgerDebitRollsBackPastBudget(t *testing.T) {
	l, err := NewLedger(LedgerConfig{BudgetRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	a := l.AccountFor("c")
	if _, ok := l.debit(a, 8); !ok {
		t.Fatal("first debit of 8 against budget 10 must fit")
	}
	if spent, ok := l.debit(a, 4); ok || spent != 8 || a.Spent() != 8 {
		t.Fatalf("debit past the budget = (%d, %v), Spent %d; want (8, false), 8", spent, ok, a.Spent())
	}
	// The refused debit changed nothing: what still fits is served.
	if spent, ok := l.debit(a, 2); !ok || spent != 10 {
		t.Fatalf("debit of the last 2 rows = (%d, %v), want (10, true)", spent, ok)
	}
	if st := l.Stats(); st.Rows != 10 {
		t.Fatalf("rows charged = %d, want 10", st.Rows)
	}
}

func TestLedgerEvictsLeastRecentlyConnected(t *testing.T) {
	clk := newFakeClock()
	l, err := NewLedger(LedgerConfig{BudgetRows: 10, Shards: 1, MaxClients: 2, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	l.debit(l.AccountFor("old"), 5) // the most spent, yet evicted first
	clk.Advance(time.Second)
	l.AccountFor("mid")
	clk.Advance(time.Second)
	l.AccountFor("new") // evicts "old", the least recently connected
	st := l.Stats()
	if st.Clients != 2 || st.Evictions != 1 {
		t.Fatalf("after eviction: clients=%d evictions=%d, want 2, 1", st.Clients, st.Evictions)
	}
	for _, cb := range l.Snapshot() {
		if cb.Client == "old" {
			t.Fatal("evicted account still tracked")
		}
	}
	// Reconnecting the evicted client gets a fresh (empty) account — the
	// documented capacity/patient-adversary trade-off.
	if got := l.AccountFor("old").Spent(); got != 0 {
		t.Fatalf("re-admitted account starts at %d rows, want 0", got)
	}
}

func TestLedgerSnapshotAndTopSpenders(t *testing.T) {
	l, err := NewLedger(LedgerConfig{BudgetRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range []int64{1, 5, 3} {
		l.debit(l.AccountFor(fmt.Sprintf("client-%d", i)), rows)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot of %d accounts, want 3", len(snap))
	}
	if snap[0].Client != "client-1" || snap[1].Client != "client-2" || snap[2].Client != "client-0" {
		t.Fatalf("snapshot not sorted by drain: %+v", snap)
	}
	if top := snap[0]; top.Spent != 5 || top.Remaining != 95 || top.Drained != 0.05 || top.Level != LevelOK {
		t.Fatalf("top spender = %+v, want 5 spent, 95 remaining, 0.05 drained, LevelOK", top)
	}
	top := l.TopSpenders(1)
	if len(top) != 1 || top[0].Client != "client-1" {
		t.Fatalf("TopSpenders(1) = %+v", top)
	}
	if got := l.TopSpenders(10); len(got) != 3 {
		t.Fatalf("TopSpenders past population = %d entries, want 3", len(got))
	}
}

func TestLedgerStatsReflectConfig(t *testing.T) {
	l, err := NewLedger(LedgerConfig{BudgetRows: 4000, MaxClients: 128, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.BudgetRows != 4000 {
		t.Fatalf("stats do not reflect config: %+v", st)
	}
	// Shards round up to a power of two; capacity divides across them.
	if len(l.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(l.shards))
	}
	if st.MaxClients != 128 {
		t.Fatalf("effective capacity = %d, want 128", st.MaxClients)
	}
}

// TestLedgerConcurrentChargesRace hammers one account and the account map
// from many goroutines — the -race witness for the sharded design.
func TestLedgerConcurrentChargesRace(t *testing.T) {
	l, err := NewLedger(LedgerConfig{BudgetRows: 1e9, MaxClients: 64, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	shared := l.AccountFor("shared")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.debit(shared, 1)
				l.debit(l.AccountFor(fmt.Sprintf("client-%d-%d", g, i%32)), 1)
				if i%100 == 0 {
					l.Snapshot()
					l.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := shared.Spent(); got != 8*500 {
		t.Fatalf("shared account spent %d rows, want %d", got, 8*500)
	}
}
