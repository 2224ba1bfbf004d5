package comm_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/privacy"
)

// This file is the acceptance test for the privacy-budget subsystem end to
// end: real server, real wire, one heavy client burning its row budget
// against light clients pacing theirs, and the full escalation ladder —
// clean service, then Gaussian response noise, then doubled noise, then
// CodeBudgetExhausted refusals — while the light clients never
// see a single perturbed byte. Run under -race in CI, it doubles as the
// concurrency proof for the ledger/guard/serving-loop composition.

// startBudgetServer runs a serving server with the given guard attached.
func startBudgetServer(t *testing.T, nBodies int, g *privacy.Guard) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := comm.NewServer(commtest.Bodies(tiny, nBodies), comm.WithWorkers(2), comm.WithBudget(g))
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestBudgetEscalationLadderE2E drives the whole defense ladder over the
// wire. The heavy client's budget covers exactly 20 single-row requests:
// requests 1-9 are served bit-exact, 10-20 arrive noised
// (the noise doubling as the drain crosses 80%), and 21+ are
// refused with a terminal ErrBudgetExhausted. Two light clients run
// concurrently on their own accounts and must finish with every response
// bit-exact and zero errors — one tenant's spending is never another's
// degradation.
func TestBudgetEscalationLadderE2E(t *testing.T) {
	const nBodies = 2
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetRows: 20})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBudgetServer(t, nBodies, guard)

	x := commtest.Input(tiny, 77, 1) // one row charged per request
	want := commtest.Reference(tiny, nBodies, x)

	// Light clients pace themselves: 5 requests each (5 of 20 rows) stays far
	// from the 10-rows-left noise threshold. They run concurrently with the heavy
	// client's burn — the race detector watches the whole composition.
	var wg sync.WaitGroup
	lightErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := comm.Dial(addr, comm.WithClientID(fmt.Sprintf("light-%d", i)))
			if err != nil {
				lightErrs <- err
				return
			}
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			for r := 0; r < 5; r++ {
				got, _, err := client.Infer(context.Background(), x)
				if err != nil {
					lightErrs <- fmt.Errorf("light-%d request %d: %w", i, r, err)
					return
				}
				if !got.AllClose(want, 1e-12) {
					lightErrs <- fmt.Errorf("light-%d request %d: response not bit-exact — noised on a healthy budget", i, r)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}

	heavy, err := comm.Dial(addr, comm.WithClientID("heavy"))
	if err != nil {
		t.Fatal(err)
	}
	defer heavy.Close()
	commtest.Wire(heavy, tiny, nBodies)

	var clean, noised, refused int
	var refuseErr error
	for r := 1; r <= 25; r++ {
		got, _, err := heavy.Infer(context.Background(), x)
		switch {
		case err != nil:
			refused++
			refuseErr = err
		case got.AllClose(want, 1e-12):
			clean++
			if noised > 0 || refused > 0 {
				t.Errorf("request %d served clean after escalation began", r)
			}
		default:
			noised++
			if refused > 0 {
				t.Errorf("request %d served (noised) after refusals began", r)
			}
			// Escalation noise perturbs, it does not destroy: the noised
			// logits stay within a few sigma of the reference.
			if !got.AllClose(want, 1.0) {
				t.Errorf("request %d: noised response unrecognizably far from reference", r)
			}
		}
	}
	wg.Wait()
	close(lightErrs)
	for err := range lightErrs {
		t.Error(err)
	}

	// The ladder, in order and in the predicted proportions: 9 clean, 11
	// noised (requests 10-20), 5 refused.
	if clean != 9 || noised != 11 || refused != 5 {
		t.Errorf("ladder = %d clean / %d noised / %d refused, want 9/11/5", clean, noised, refused)
	}
	if !errors.Is(refuseErr, comm.ErrBudgetExhausted) {
		t.Errorf("refusal surfaced as %v, want ErrBudgetExhausted", refuseErr)
	}
	if guard.Noised() == 0 || guard.Refusals() == 0 {
		t.Errorf("guard counters noised=%d refused=%d, want both nonzero", guard.Noised(), guard.Refusals())
	}

	// The ledger's external view agrees: heavy is the top spender at the
	// refusal level with a fully drained budget.
	top := ledger.TopSpenders(1)
	if len(top) != 1 || top[0].Client != "heavy" {
		t.Fatalf("top spender = %+v, want the heavy client", top)
	}
	if top[0].Drained != 1 || top[0].Refusals == 0 || top[0].Level != int(privacy.LevelRefused) {
		t.Errorf("heavy account = %+v, want fully drained, refused level, refusals recorded", top[0])
	}
}

// TestBudgetAccountIdentities pins how the ledger keys tenants across the
// two ways a peer can arrive: a client with a declared ID gets its own
// account; ID-less clients from the same host, whatever their connection,
// share one address-bucket account.
func TestBudgetAccountIdentities(t *testing.T) {
	const nBodies = 2
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBudgetServer(t, nBodies, guard)
	x := commtest.Input(tiny, 78, 2)

	infer := func(opts ...comm.DialOption) {
		t.Helper()
		client, err := comm.Dial(addr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		commtest.Wire(client, tiny, nBodies)
		if _, _, err := client.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	infer(comm.WithClientID("did:ex:alice"))
	infer()                                  // no declared ID
	infer(comm.WithWire(comm.WireBinaryF32)) // nor here, on a second connection

	snap := ledger.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ledger tracks %d accounts %+v, want 2 (declared ID + shared addr bucket)", len(snap), snap)
	}
	byClient := map[string]privacy.ClientBudget{}
	for _, c := range snap {
		byClient[c.Client] = c
	}
	alice, ok := byClient["did:ex:alice"]
	if !ok || alice.Spent != 2 {
		t.Errorf("declared-ID account = %+v, want 2 rows charged", alice)
	}
	bucket, ok := byClient["addr:127.0.0.1"]
	if !ok || bucket.Spent != 4 {
		t.Errorf("addr-bucket account = %+v, want the 4 rows of both anonymous peers", bucket)
	}
}
