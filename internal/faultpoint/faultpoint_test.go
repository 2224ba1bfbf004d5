package faultpoint_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"ensembler/internal/commtest"
	"ensembler/internal/faultpoint"
)

// listen wraps a fresh loopback listener, closed when the test ends.
func listen(t *testing.T, seed int64, index int) *faultpoint.Listener {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := faultpoint.Wrap(tcp, seed, index)
	t.Cleanup(func() { l.Close() })
	return l
}

// pair dials l and returns the accepted (wrapped) end and the dialed end.
func pair(t *testing.T, l *faultpoint.Listener) (srv, cli net.Conn) {
	t.Helper()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	cli, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv = <-accepted
	if srv == nil {
		t.FailNow()
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })
	return srv, cli
}

// TestDisabledFastPathAllocs pins what a disarmed seam costs a conn: no
// allocation on a read or a write (and none for the benchmark module's empty
// site check).
func TestDisabledFastPathAllocs(t *testing.T) {
	commtest.LeakCheck(t)
	srv, cli := pair(t, listen(t, 1, 0))
	msg, buf := []byte("0123456789abcdef"), make([]byte, 16)
	site := faultpoint.New("bench/micro")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := srv.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cli, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(srv, buf); err != nil {
			t.Fatal(err)
		}
		if site.Inject() != nil {
			t.Fatal("the benchmark's site check failed")
		}
	}); allocs != 0 {
		t.Errorf("a disarmed seam allocates %v times per round trip, want 0", allocs)
	}
}

// TestEnableDisable: an armed read error fails the read that delivered
// bytes and loses them; once disarmed, reads pass through untouched.
func TestEnableDisable(t *testing.T) {
	commtest.LeakCheck(t)
	l := listen(t, 1, 0)
	srv, cli := pair(t, l)
	buf := make([]byte, 4)
	f := l.Arm(faultpoint.Policy{Kind: faultpoint.ReadError})
	if _, err := cli.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.Read(buf); n != 0 || !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("armed read = %d, %v; want 0, ErrInjected", n, err)
	}
	l.Disarm(f)
	if _, err := cli.Write([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(srv, buf); err != nil || string(buf) != "kept" {
		t.Fatalf("disarmed read = %q, %v; want the bytes written after the fault", buf, err)
	}
	if f.Triggers() != 1 {
		t.Fatalf("the read error fired %d times, want 1", f.Triggers())
	}
}

// TestArmedOtherSiteDoesNotTrigger: a fault armed on one listener never
// fires on another, nor on the same listener for another kind.
func TestArmedOtherSiteDoesNotTrigger(t *testing.T) {
	a, b := faultpoint.Wrap(nil, 1, 0), faultpoint.Wrap(nil, 1, 1)
	a.Arm(faultpoint.Policy{Kind: faultpoint.TornWrite})
	if _, ok := b.Fire(faultpoint.TornWrite); ok {
		t.Fatal("a fault armed on listener a fired on listener b")
	}
	if _, ok := a.Fire(faultpoint.Reset); ok {
		t.Fatal("an armed torn write fired as a reset")
	}
	if _, ok := a.Fire(faultpoint.TornWrite); !ok {
		t.Fatal("the armed fault did not fire")
	}
}

// TestCountAndAfter: a fault with a count fires on its first Count hits
// only, and after it is spent the next fault of its kind is consulted.
func TestCountAndAfter(t *testing.T) {
	l := faultpoint.Wrap(nil, 1, 0)
	f := l.Arm(faultpoint.Policy{Kind: faultpoint.Drop, Count: 3})
	for i := 0; i < 10; i++ {
		if _, ok := l.Fire(faultpoint.Drop); ok != (i < 3) {
			t.Fatalf("hit %d triggered = %v, want the first 3 hits only", i, ok)
		}
	}
	if f.Triggers() != 3 {
		t.Fatalf("fault counts %d triggers, want 3 (the count cap)", f.Triggers())
	}
	g := l.Arm(faultpoint.Policy{Kind: faultpoint.Drop, Count: 1})
	if _, ok := l.Fire(faultpoint.Drop); !ok || g.Triggers() != 1 || f.Triggers() != 3 {
		t.Fatalf("second fault: fired %v, triggers %d and %d; want true, 1 and 3", ok, g.Triggers(), f.Triggers())
	}
}

// TestProbabilityDeterministic: the same seed, listener index and hit order
// give the same trigger sequence; another index gives another one.
func TestProbabilityDeterministic(t *testing.T) {
	run := func(seed int64, index int) []bool {
		l := faultpoint.Wrap(nil, seed, index)
		l.Arm(faultpoint.Policy{Kind: faultpoint.ReadError, Prob: 0.5})
		l.Arm(faultpoint.Policy{Kind: faultpoint.Stall, Prob: 0.5})
		out := make([]bool, 128)
		for i := range out {
			_, out[i] = l.Fire([]faultpoint.Kind{faultpoint.ReadError, faultpoint.Stall}[i%2])
		}
		return out
	}
	a1, a2, b := run(42, 0), run(42, 0), run(42, 1)
	var trig int
	sameA, sameB := true, true
	for i := range a1 {
		if a1[i] {
			trig++
		}
		sameA = sameA && a1[i] == a2[i]
		sameB = sameB && a1[i] == b[i]
	}
	if !sameA {
		t.Fatal("the same seed and index gave different trigger sequences")
	}
	if sameB {
		t.Fatal("two listener indices gave identical 128-hit sequences")
	}
	if trig < 32 || trig > 96 {
		t.Fatalf("p=0.5 triggered %d/128 times: the rng or the probability gate is broken", trig)
	}
}

// TestStallDelaysOnce: an armed stall sleeps its delay before a write
// proceeds, and the write then goes out whole.
func TestStallDelaysOnce(t *testing.T) {
	commtest.LeakCheck(t)
	l := listen(t, 1, 0)
	srv, cli := pair(t, l)
	f := l.Arm(faultpoint.Policy{Kind: faultpoint.Stall, Delay: 20 * time.Millisecond, Count: 1})
	buf := make([]byte, 5)
	for i, wantSlow := range []bool{true, false} {
		start := time.Now()
		if _, err := srv.Write([]byte("stall")); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); wantSlow && took < 15*time.Millisecond {
			t.Fatalf("write %d took %v, want the 20ms stall", i, took)
		}
		if _, err := io.ReadFull(cli, buf); err != nil || string(buf) != "stall" {
			t.Fatalf("write %d read back %q, %v", i, buf, err)
		}
	}
	if f.Triggers() != 1 {
		t.Fatalf("count=1 stall fired %d times", f.Triggers())
	}
}

// TestFireOutcomeDefaults: a tear lets half a write through — at least a
// byte, never all of it.
func TestFireOutcomeDefaults(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 100: 50} {
		if got := faultpoint.CutLen(n); got != want {
			t.Errorf("CutLen(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[faultpoint.Kind]string{
		faultpoint.Drop: "drop", faultpoint.ReadError: "read-error", faultpoint.TornWrite: "torn-write",
		faultpoint.Reset: "reset", faultpoint.Stall: "stall", faultpoint.Kind(250): "kind(250)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestTornWriteAndReset: a torn write lets half the bytes out and then ends
// the stream; a reset lets at most that prefix out and then aborts it. The
// peer never reads the whole write.
func TestTornWriteAndReset(t *testing.T) {
	commtest.LeakCheck(t)
	msg := bytes.Repeat([]byte("frame"), 20)
	for _, kind := range []faultpoint.Kind{faultpoint.TornWrite, faultpoint.Reset} {
		t.Run(kind.String(), func(t *testing.T) {
			l := listen(t, 1, 0)
			srv, cli := pair(t, l)
			l.Arm(faultpoint.Policy{Kind: kind})
			if n, err := srv.Write(msg); n != len(msg)/2 || !errors.Is(err, faultpoint.ErrInjected) {
				t.Fatalf("torn write = %d, %v; want %d, ErrInjected", n, err, len(msg)/2)
			}
			got, err := io.ReadAll(cli)
			switch kind {
			case faultpoint.TornWrite:
				if err != nil || !bytes.Equal(got, msg[:len(msg)/2]) {
					t.Fatalf("peer read %d bytes, %v; want the %d-byte prefix, then the end of the stream", len(got), err, len(msg)/2)
				}
			case faultpoint.Reset:
				if !errors.Is(err, syscall.ECONNRESET) || len(got) > len(msg)/2 {
					t.Fatalf("peer read %d bytes, %v; want at most the prefix, then a reset", len(got), err)
				}
			}
		})
	}
}

// TestDropAtAccept: a dropped conn is closed before the server sees it, and
// the next one is accepted as usual.
func TestDropAtAccept(t *testing.T) {
	commtest.LeakCheck(t)
	l := listen(t, 1, 0)
	f := l.Arm(faultpoint.Policy{Kind: faultpoint.Drop, Count: 1})
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	dropped, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dropped.Close()
	if n, err := dropped.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("dropped conn read %d, %v; want it closed", n, err)
	}
	kept, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	srv := <-accepted
	if srv == nil {
		t.Fatal("the conn after the drop was not accepted")
	}
	defer srv.Close()
	if _, err := kept.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(srv, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("accepted conn read %q, %v", buf, err)
	}
	if f.Triggers() != 1 {
		t.Fatalf("drop fired %d times, want 1", f.Triggers())
	}
}
