package comm_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// The raw peer: tests that play one end of the socket by hand assemble their
// bytes here, from the layout codec.go documents and nothing else — so they
// can say what no encoder will (a tensor whose dims and payload disagree), and
// they pin that layout independently of the codec's own writers.

var rawMagic = []byte{0xE5, 'N', 'S', 'B'}

// rawHello is a hello, or a window-less ack, naming version and flags.
func rawHello(version, flags byte) []byte {
	return append(append([]byte{}, rawMagic...), version, flags, 0, 0)
}

// rawFrame length-prefixes the concatenation of parts.
func rawFrame(parts ...[]byte) []byte {
	body := bytes.Join(parts, nil)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// rawTensor is a float64 wire tensor claiming dims over exactly the values
// given, whether or not the two agree.
func rawTensor(dims []uint32, values []float64) []byte {
	b := []byte{byte(len(dims)), 0x00}
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// rawHonestTensor is t as rawTensor.
func rawHonestTensor(t *tensor.Tensor) []byte {
	dims := make([]uint32, len(t.Shape))
	for i, d := range t.Shape {
		dims[i] = uint32(d)
	}
	return rawTensor(dims, t.Data)
}

// rawRequestHead opens an untraced request for the default model at its
// current version: kind 0 announces one feature tensor, kind 1 a batch.
func rawRequestHead(kind byte, count uint16) []byte {
	return []byte{0x01, 0, 0, 0, 0, 0, 0, kind, byte(count), byte(count >> 8)}
}

// rawResponseHead opens an untraced, error-free feature response (no model
// name, version 0, code 0) announcing count tensors.
func rawResponseHead(count uint16) []byte {
	return []byte{0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, byte(count), byte(count >> 8)}
}

// rawReadFrame reads one length-prefixed frame body.
func rawReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	_, err := io.ReadFull(r, body)
	return body, err
}

// rawResponseErr extracts the error text of a response frame body.
func rawResponseErr(t *testing.T, body []byte) string {
	t.Helper()
	if len(body) < 9 || body[0] != 0x02 {
		t.Fatalf("not a response frame: % x", body)
	}
	rest := body[3+binary.LittleEndian.Uint16(body[1:]):] // past the model name
	n := binary.LittleEndian.Uint16(rest[4:])             // past the version
	return string(rest[6 : 6+n])
}

// rawDial opens a connection and shakes hands the way a client does.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(rawHello(4, 0)); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 8)
	if _, err := io.ReadFull(conn, ack); err != nil || !bytes.Equal(ack, rawHello(4, 0)) {
		t.Fatalf("hello ack % x (%v), want % x", ack, err, rawHello(4, 0))
	}
	return conn
}

// rawServer plays the server: it answers every hello with ack and then, for
// each connection's i-th frame, writes respond(i) — or, with a nil respond,
// hangs up straight after the ack.
func rawServer(t *testing.T, ack []byte, respond func(i int) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var hello [8]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					return
				}
				if _, err := conn.Write(ack); err != nil || respond == nil {
					return
				}
				for i := 0; ; i++ {
					if _, err := rawReadFrame(conn); err != nil {
						return
					}
					if _, err := conn.Write(respond(i)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestOtherDialectsAreRefused pins the refusal rule of the one wire protocol
// against a live server: a peer that opens with anything but the current
// hello is closed promptly — after a version-0 ack when it at least spoke the
// magic, which every client this codec ever shipped reports as an unsupported
// wire version — without the server reading on: not a client-ID frame the
// hello's flag would have announced, and not a frame whose length prefix
// claims the 256 MiB maximum. A current client on the same listener is then
// served bit-exactly.
func TestOtherDialectsAreRefused(t *testing.T) {
	commtest.LeakCheck(t)
	const nBodies = 2
	ctx, cancel := context.WithCancel(context.Background())
	addr, served := startConcurrentServer(t, ctx, nBodies, 1)
	t.Cleanup(func() {
		cancel()
		<-served
	})

	noise := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(noise)
	refusal := rawHello(0, 0)
	// What a refused peer sends next must go unread: a length prefix claiming
	// the largest frame, over 3 bytes.
	claim := []byte{0x00, 0x00, 0x00, 0x10, 1, 2, 3}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range []struct {
		name  string
		open  []byte
		hello bool // the opener is a whole hello: expect the version-0 ack
	}{
		{"gob stream opener", []byte(comm.GobStreamOpener), false},
		{"v1 hello", rawHello(1, 0), true},
		{"v2 hello", rawHello(2, 0), true},
		{"v3 hello", rawHello(3, 0), true},
		{"v5 hello", rawHello(5, 0), true},
		{"v3 hello carrying the client-ID flag", rawHello(3, 0x02), true},
		{"3-byte short hello", rawMagic[:3], false},
		{"random bytes", noise, false},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(c.open); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.hello {
			ack := make([]byte, 8)
			if _, err := io.ReadFull(conn, ack); err != nil || !bytes.Equal(ack, refusal) {
				t.Errorf("%s: answered % x (%v), want the version-0 ack % x", c.name, ack, err, refusal)
			}
		}
		if len(c.open) >= 4 {
			conn.Write(claim) // may already fail: the server has hung up
		} else {
			conn.(*net.TCPConn).CloseWrite() // a short hello only ends when its sender does
		}
		// The server hangs up without another byte. (Where it left the peer's
		// bytes unread the close arrives as a reset, not an EOF.)
		rest, err := io.ReadAll(conn)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: connection still open after 5s", c.name)
		}
		if len(rest) != 0 {
			t.Errorf("%s: server sent % x before closing", c.name, rest)
		}
		conn.Close()
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Errorf("refusing 8 peers allocated %d bytes: something was sized by a claim", grew)
	}

	x := commtest.Input(tiny, 64, 2)
	got, _, err := dialWired(t, addr, nBodies).Infer(context.Background(), x)
	if err != nil {
		t.Fatalf("current client after the refusals: %v", err)
	}
	if !got.AllClose(commtest.Reference(tiny, nBodies, x), 0) {
		t.Error("current client after the refusals: result is not bit-exact")
	}
}

// TestDialRefusesOtherAcks is the client's half of the same rule: an ack that
// names any version but the one offered (0 is a server's refusal), or is not
// an ack at all, fails the dial — with an error that does not point at a
// protocol this client no longer speaks.
func TestDialRefusesOtherAcks(t *testing.T) {
	for name, ack := range map[string][]byte{
		"version 0":   rawHello(0, 0),
		"version 3":   rawHello(3, 0),
		"version 5":   rawHello(5, 0),
		"wrong magic": []byte("notmagic"),
	} {
		client, err := comm.Dial(rawServer(t, ack, nil))
		if err == nil {
			client.Close()
			t.Errorf("%s: dial succeeded", name)
		} else if strings.Contains(strings.ToLower(err.Error()), "gob") {
			t.Errorf("%s: error still offers the gob protocol: %v", name, err)
		}
	}
}

// rawErrorFrame is an untraced error response carrying text and code.
func rawErrorFrame(text string, code uint16) []byte {
	head := []byte{0x02, 0, 0, 0, 0, 0, 0}
	head = binary.LittleEndian.AppendUint16(head, uint16(len(text)))
	head = append(head, text...)
	head = binary.LittleEndian.AppendUint16(head, code)
	return rawFrame(head, []byte{0x00, 0, 0})
}

// TestPoolDoesNotRetryServerErrors pins the pool's one attempt: a server that
// answers every request with a coded error (429 here) costs a pooled Exchange
// exactly one request frame and surfaces the server's error, with no backoff.
// A caller that wants a retry (the shard client does) makes it itself.
func TestPoolDoesNotRetryServerErrors(t *testing.T) {
	var frames atomic.Int64
	addr := rawServer(t, rawHello(4, 0), func(int) []byte {
		frames.Add(1)
		return rawErrorFrame("server overloaded", 429)
	})
	pool, err := comm.NewPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var ex comm.Exchanged
	_, err = pool.ExchangeTraced(context.Background(), commtest.Input(tiny, 90, 1), trace.Context{}, &ex)
	if err == nil || !strings.Contains(err.Error(), "server overloaded") {
		t.Fatalf("exchange against an always-failing server returned %v, want the server's error", err)
	}
	if n := frames.Load(); n != 1 {
		t.Fatalf("one pooled Exchange sent %d request frames, want 1", n)
	}
}

// TestHelloAckReservedFieldIgnored pins the ack's trailing u16 as reserved:
// a server acks with the hello's own bytes (reserved zero) whatever flags it
// accepts, and a client reads a nonzero value there and ignores it.
func TestHelloAckReservedFieldIgnored(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addr, served := startConcurrentServer(t, ctx, 1, 1)
	t.Cleanup(func() {
		cancel()
		<-served
	})
	for _, flags := range []byte{0, 0x01, 0x02, 0x03} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(rawHello(4, flags)); err != nil {
			t.Fatal(err)
		}
		ack := make([]byte, 8)
		if _, err := io.ReadFull(conn, ack); err != nil || !bytes.Equal(ack, rawHello(4, flags)) {
			t.Errorf("flags %#x: ack % x (%v), want % x", flags, ack, err, rawHello(4, flags))
		}
		conn.Close()
	}

	ack := rawHello(4, 0)
	binary.LittleEndian.PutUint16(ack[6:], 25)
	want := commtest.Input(tiny, 91, 1)
	client, err := comm.Dial(rawServer(t, ack, func(int) []byte {
		return rawFrame(rawResponseHead(1), rawHonestTensor(want))
	}))
	if err != nil {
		t.Fatalf("dial against an ack with a nonzero reserved field: %v", err)
	}
	defer client.Close()
	ex, _, err := client.Exchange(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Features) != 1 || !ex.Features[0].AllClose(want, 0) {
		t.Fatal("exchange after a nonzero reserved ack field did not decode the served tensor")
	}
}
