package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// FuzzWireRequestFrame runs arbitrary bytes through the binary request
// parser — the server's trust boundary for everything after the frame
// length — at BOTH element types it is instantiated at (a float64 server's
// and a float32 server's decode). The parser must never panic and never
// allocate beyond what the frame's actual byte count supports (the
// lying-dims guard); the two instantiations must agree on accept/reject,
// header, trace context and every shape, with each float32-decoded value the
// single rounding of its float64-decoded twin; and round-tripping whatever
// decodes must reproduce the frame's semantics.
func FuzzWireRequestFrame(f *testing.F) {
	seed, err := appendRequest(nil, &Request{Model: "m", Version: 2, Features: wireTensor(41, 1, 2, 4, 4)}, false, trace.Context{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	batched, err := appendRequest(nil, &Request{Inputs: []*tensor.Tensor{wireTensor(42, 1, 2, 4, 4)}}, true, trace.Context{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batched)
	f.Add([]byte{wireMsgRequest, 0, 0, 0, 0, 0, 0, wireKindFeatures, 1, 0, 1, wireDtypeF64, 1, 0, 0, 0})
	// The traced frame: same payload behind the trace header. A corrupted
	// variant (trace ID zeroed, which the parser must reject) seeds the
	// invalid branch.
	traced, err := appendRequest(nil, &Request{Model: "m", Version: 2, Features: wireTensor(41, 1, 2, 4, 4)},
		false, trace.Context{ID: 0x0123456789ABCDEF, Sampled: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traced)
	zeroID := append([]byte(nil), traced...)
	for i := 1; i <= 8; i++ {
		zeroID[i] = 0
	}
	f.Add(zeroID)
	f.Add([]byte{wireMsgRequestTraced, 1, 2, 3}) // truncated trace header
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			p64          payload[float64]
			p32          payload[float32]
			req64, req32 Request
			tc64, tc32   trace.Context
		)
		err64 := parseRequestInto(body, &req64, &p64, &tc64)
		err32 := parseRequestInto(body, &req32, &p32, &tc32)
		if (err64 == nil) != (err32 == nil) || (err64 != nil && err64.Error() != err32.Error()) {
			t.Fatalf("instantiations disagree on the frame: f64 %v, f32 %v", err64, err32)
		}
		if err64 != nil {
			return
		}
		if req64.Model != req32.Model || req64.Version != req32.Version || tc64 != tc32 || p64.batched != p32.batched {
			t.Fatal("instantiations decode different headers")
		}
		in64, in32 := p64.inputs, p32.inputs
		if len(in64) != len(in32) {
			t.Fatalf("instantiations decode %d vs %d tensors", len(in64), len(in32))
		}
		for i, t64 := range in64 {
			if (t64 == nil) != (in32[i] == nil) {
				t.Fatalf("tensor %d present in one instantiation only", i)
			}
			if t64 != nil {
				sameNarrowed(t, t64, in32[i])
			}
		}
		// Whatever parsed must re-encode and re-parse to the same header.
		req, err := parseRequest(body, nil)
		if err != nil {
			t.Fatalf("heap decode rejects what the payload decode accepted: %v", err)
		}
		re, err := appendRequest(nil, req, false, trace.Context{})
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		req2, err := parseRequest(re, nil)
		if err != nil {
			t.Fatalf("re-encoded request does not parse: %v", err)
		}
		if req2.Model != req.Model || req2.Version != req.Version {
			t.Fatal("request header does not round-trip")
		}
	})
}

// sameNarrowed requires a float32-decoded tensor to be exactly the float64
// decode of the same bytes rounded once: equal shapes, and each value the
// float32 conversion of its twin (NaNs matching NaNs — a conversion may quiet
// a signalling payload).
func sameNarrowed(t *testing.T, t64 *tensor.Tensor, t32 *tensor.Tensor32) {
	t.Helper()
	if len(t64.Shape) != len(t32.Shape) || len(t64.Data) != len(t32.Data) {
		t.Fatalf("shapes differ across instantiations: %v vs %v", t64.Shape, t32.Shape)
	}
	for i, d := range t64.Shape {
		if t32.Shape[i] != d {
			t.Fatalf("shapes differ across instantiations: %v vs %v", t64.Shape, t32.Shape)
		}
	}
	for i, v := range t64.Data {
		if w, g := float32(v), t32.Data[i]; w != g && (w == w || g == g) {
			t.Fatalf("value %d: float32 decode %v is not the rounding %v of the float64 decode %v", i, g, w, v)
		}
	}
}

// narrowAll rounds response parts to float32, keeping nil where nil.
func narrowAll(ts []*tensor.Tensor) []*tensor.Tensor32 {
	if ts == nil {
		return nil
	}
	out := make([]*tensor.Tensor32, len(ts))
	for i, t := range ts {
		out[i] = tensor.Narrow32(t)
	}
	return out
}

// FuzzWireResponseFrame covers the client's half of the trust boundary: the
// server is the adversary of the threat model, so its frames deserve the
// same hostility testing as requests. A frame that decodes must round-trip
// its code (the budget verdict must survive the wire exactly, or a refusal
// would be mistaken for an ordinary failure). Whatever
// decodes is then re-encoded by both instantiations of the response writer —
// from the float64 parts and from their float32 narrowing, as a float64 and a
// float32 server would hold them: on the f32 wire the two frames must be the
// same bytes (one rounding either way), and on the f64 wire the float32
// writer's frame must decode to exactly the widened float32 values.
//
// Every input is also parsed the way a connection does it — twice into one
// Response over one reused arena left dirty by an unrelated earlier response
// — and must give the heap parse's error, or its exact header, shapes and
// bits (sameAsHeapParse).
func FuzzWireResponseFrame(f *testing.F) {
	seed, err := encodeResponse(nil, &Response{Model: "m", Version: 1,
		Features: []*tensor.Tensor{wireTensor(43, 2, 8)}}, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	errFrame, err := encodeResponse(nil, &Response{Err: "x"}, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(errFrame)
	// A coded error frame: the budget refusal, exactly as the guard emits it.
	refusal, err := encodeResponse(nil, &Response{Err: budgetExhaustedMsg, Code: CodeBudgetExhausted}, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(refusal)
	// The traced response: trace-ID echo ahead of the payload, plus a
	// truncated-echo corruption.
	echoed, err := encodeResponse(nil, &Response{Model: "m", Version: 1,
		Features: []*tensor.Tensor{wireTensor(43, 2, 8)}}, false, 0xFEEDFACECAFEBEEF)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(echoed)
	f.Add([]byte{wireMsgResponseTraced, 0xEF, 0xBE})
	// The batched grid on the f32 wire, which is also what dirties the reused
	// decode target before each input.
	stale, err := encodeResponse(nil, &Response{Model: "stale", Version: 9, Outputs: [][]*tensor.Tensor{
		{wireTensor(45, 1, 6), wireTensor(46, 1, 6), wireTensor(47, 1, 6)},
		{wireTensor(48, 3, 6), wireTensor(49, 3, 6), wireTensor(50, 3, 6)}}}, true, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stale)
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp Response
		err := parseResponse(body, &resp, nil)
		sameAsHeapParse(t, body, stale, &resp, err)
		if err != nil {
			return
		}
		re, err := encodeResponse(nil, &resp, false, 0)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %v", err)
		}
		var resp2 Response
		if err := parseResponse(re, &resp2, nil); err != nil {
			t.Fatalf("re-encoded response does not parse: %v", err)
		}
		if resp2.Code != resp.Code || resp2.Err != resp.Err {
			t.Fatalf("response code/err does not round-trip: (%d,%q) vs (%d,%q)",
				resp.Code, resp.Err, resp2.Code, resp2.Err)
		}

		feats32 := narrowAll(resp.Features)
		var outs32 [][]*tensor.Tensor32
		if resp.Outputs != nil {
			outs32 = make([][]*tensor.Tensor32, len(resp.Outputs))
			for i, row := range resp.Outputs {
				outs32[i] = narrowAll(row)
			}
		}
		from64, err64 := encodeResponse(nil, &resp, true, 0)
		from32, err32 := appendResponse(nil, &resp, feats32, outs32, true, 0)
		if (err64 == nil) != (err32 == nil) {
			t.Fatalf("writer instantiations disagree: f64 %v, f32 %v", err64, err32)
		}
		if err64 == nil && !bytes.Equal(from64, from32) {
			t.Fatal("f32-wire frames differ between the float64 and float32 writers")
		}
		wide, err := appendResponse(nil, &resp, feats32, outs32, false, 0)
		if err != nil {
			return // ragged grids are rejected identically at either precision
		}
		var widened Response
		if err := parseResponse(wide, &widened, nil); err != nil {
			t.Fatalf("float32 writer's f64-wire frame does not parse: %v", err)
		}
		for i, t32 := range feats32 {
			sameNarrowed(t, widened.Features[i], t32)
		}
		for i, row := range outs32 {
			for b, t32 := range row {
				sameNarrowed(t, widened.Outputs[i][b], t32)
			}
		}
	})
}

// sameAsHeapParse decodes body twice into one Response over one arena, both
// warm from decoding stale and with everything the previous parse produced
// scribbled over first (arena data is unzeroed by contract, and a tensor of
// an earlier parse still reachable afterwards would show its scribble), and
// holds each result to want/wantErr, the heap parse of the same bytes.
func sameAsHeapParse(t *testing.T, body, stale []byte, want *Response, wantErr error) {
	t.Helper()
	var got Response
	var arena tensor.Arena[float64]
	scribble := func() {
		for _, row := range append(got.Outputs[:len(got.Outputs):len(got.Outputs)], got.Features) {
			for _, ts := range row {
				for i := range ts.Data {
					ts.Data[i] = math.NaN()
				}
				for i := range ts.Shape {
					ts.Shape[i] = 0
				}
			}
		}
		arena.Reset()
	}
	for pass := 0; pass < 2; pass++ { // the first sizes the arena, the second decodes inside it
		scribble()
		if err := parseResponseInto(stale, &got, nil, &arena); err != nil {
			t.Fatal(err)
		}
	}
	sameList := func(what string, got, want []*tensor.Tensor) {
		if len(got) != len(want) {
			t.Fatalf("arena parse yields %d %s, heap parse %d", len(got), what, len(want))
		}
		for i, g := range got {
			if err := bitsDiffer(g, want[i]); err != nil {
				t.Fatalf("arena parse against heap parse, %s %d: %v", what, i, err)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		scribble()
		err := parseResponseInto(body, &got, nil, &arena)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("arena parse %d fails with %v, heap parse with %v", pass, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Model != want.Model || got.Version != want.Version || got.Err != want.Err || got.Code != want.Code {
			t.Fatalf("arena parse %d header (%q v%d, %q/%d), heap parse (%q v%d, %q/%d)", pass,
				got.Model, got.Version, got.Err, got.Code, want.Model, want.Version, want.Err, want.Code)
		}
		sameList("features", got.Features, want.Features)
		if len(got.Outputs) != len(want.Outputs) {
			t.Fatalf("arena parse yields %d output rows, heap parse %d", len(got.Outputs), len(want.Outputs))
		}
		for i, row := range got.Outputs {
			sameList("outputs", row, want.Outputs[i])
		}
	}
}

// FuzzWireStream covers the two readers of a whole byte stream: the wiretap's
// parser, and the live connection's readFrame, which sees a frame's length
// prefix before its bytes and must never size its buffer by the prefix alone —
// its buffer stays within one growth step, or twice, of the bytes the stream
// really holds.
func FuzzWireStream(f *testing.F) {
	var bin bytes.Buffer
	hello := helloBytes(wireVersion, 0)
	bin.Write(hello[:])
	c := &binClientCodec{binFramer{w: &bin}}
	if err := c.writeRequest(&Request{Features: wireTensor(44, 1, 1, 2, 2)}, trace.Context{}); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	// Hello-ack bytes with a nonzero reserved u16 followed by a frame.
	var ackStream bytes.Buffer
	ack := reservedAck(wireVersion, wireFlagF32, 25)
	ackStream.Write(ack[:])
	ackStream.Write(bin.Bytes()[8:])
	f.Add(ackStream.Bytes())
	f.Add([]byte{0xE5, 'N', 'S', 'B'})
	f.Add([]byte{0xE5, 'N', 'S', 'B', 2, 0, 0xFF, 0xFF})
	f.Add([]byte{3, 0xFF})
	// A hello followed by a frame claiming maxWireFrame over 3 bytes.
	f.Add(append(hello[:], 0x00, 0x00, 0x00, 0x10, 1, 2, 3))
	// A stream whose request frame carries the trace header.
	var tracedStream bytes.Buffer
	tracedStream.Write(hello[:])
	c3 := &binClientCodec{binFramer{w: &tracedStream}}
	if err := c3.writeRequest(&Request{Features: wireTensor(44, 1, 1, 2, 2)},
		trace.Context{ID: 7, Sampled: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(tracedStream.Bytes())
	f.Fuzz(func(t *testing.T, stream []byte) {
		_, _ = DecodeWireStream(stream)
		r := bytes.NewReader(stream)
		var buf []byte
		for {
			var err error
			buf, _, err = readFrame(r, buf)
			if cap(buf) > max(2*len(stream), frameGrowth) {
				t.Fatalf("readFrame holds %d bytes over a %d-byte stream", cap(buf), len(stream))
			}
			if err != nil {
				break
			}
		}
	})
}

// FuzzWireTracedFrames is the trace-extension trust boundary: arbitrary
// bytes through the traced request parser must never panic, anything that
// parses must carry a nonzero trace ID (the zero ID is the reserved
// "untraced" value and the parser rejects it), and the trace context must
// round-trip exactly — a sampled flag or ID that mutates in flight would
// stitch legs onto the wrong trace.
func FuzzWireTracedFrames(f *testing.F) {
	for _, tc := range []trace.Context{
		{ID: 1},
		{ID: ^uint64(0), Sampled: true},
		{ID: 0x0123456789ABCDEF, Sampled: true},
	} {
		seed, err := appendRequest(nil, &Request{Model: "m", Features: wireTensor(41, 1, 2, 4, 4)}, false, tc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{wireMsgRequestTraced, 0, 0, 0, 0, 0, 0, 0, 0, 0})    // zero ID: must be rejected
	f.Add([]byte{wireMsgRequestTraced, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF}) // unknown tflags bits
	f.Add([]byte{wireMsgRequestTraced, 1, 2, 3, 4})                   // truncated ID
	f.Fuzz(func(t *testing.T, body []byte) {
		var tc trace.Context
		req, err := parseRequest(body, &tc)
		if err != nil {
			return
		}
		if len(body) > 0 && body[0] == wireMsgRequestTraced && tc.ID == 0 {
			t.Fatal("traced frame parsed with the reserved zero trace ID")
		}
		re, err := appendRequest(nil, req, false, tc)
		if err != nil {
			t.Fatalf("decoded traced request does not re-encode: %v", err)
		}
		var tc2 trace.Context
		if _, err := parseRequest(re, &tc2); err != nil {
			t.Fatalf("re-encoded traced request does not parse: %v", err)
		}
		if tc2 != tc {
			t.Fatalf("trace context does not round-trip: %+v vs %+v", tc, tc2)
		}
	})
}

// reservedAck is an ack whose reserved trailing u16 holds v, which a client
// reads and ignores.
func reservedAck(version, flags byte, v uint16) [8]byte {
	ack := helloBytes(version, flags)
	binary.LittleEndian.PutUint16(ack[6:], v)
	return ack
}

// FuzzWireHelloAck runs arbitrary bytes through the client's half of the
// hello exchange — the surface a hostile server controls. The client must
// never panic and never accept an ack naming any version but its own.
func FuzzWireHelloAck(f *testing.F) {
	good := helloBytes(wireVersion, 0)
	f.Add(good[:])
	v1 := helloBytes(1, wireFlagF32)
	f.Add(v1[:])
	reserved := reservedAck(wireVersion, wireFlagClientID, 25)
	f.Add(reserved[:])
	tooNew := helloBytes(99, 0)
	f.Add(tooNew[:])
	f.Add([]byte("notmagic"))
	f.Add([]byte{0xE5, 'N', 'S', 'B', 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ack []byte) {
		var sink bytes.Buffer
		_, err := negotiateClient(&sink, bufio.NewReader(bytes.NewReader(ack)), true, "fuzz-client")
		if err != nil {
			return
		}
		if ack[4] != wireVersion {
			t.Fatalf("accepted an ack naming wire version %d, not %d", ack[4], wireVersion)
		}
		// The client declares its identity only to an ack that echoes the
		// flag; otherwise the post-hello wire stays silent (a server that did
		// not promise to read the ID frame would parse it as a request).
		if sent := sink.Len() > 8; sent != (ack[5]&wireFlagClientID != 0) {
			t.Fatalf("client-ID frame presence wrong: wrote %d bytes after an ack with flags %#x",
				sink.Len()-8, ack[5])
		}
	})
}

// FuzzWireHelloClientID is the server's trust boundary for the identity
// frame: arbitrary bytes through the client-ID frame parser must never
// panic, anything accepted must satisfy the declared identity discipline
// (1-64 printable ASCII bytes, nothing trailing), and valid IDs must
// round-trip through the encoder exactly.
func FuzzWireHelloClientID(f *testing.F) {
	f.Add(appendClientID(nil, "client-a"))
	f.Add(appendClientID(nil, "did:key:z6MkhaXgBZDvotDkL5257faiztiGiC2QtKLGpbnnEGta2doK"))
	f.Add([]byte{wireMsgClientID, 0})                    // zero-length ID
	f.Add([]byte{wireMsgClientID, 5, 'a', 'b'})          // truncated body
	f.Add([]byte{wireMsgClientID, 1, ' '})               // space: not printable-ASCII per the wire rule
	f.Add([]byte{wireMsgClientID, 2, 'o', 'k', 'x'})     // trailing bytes
	f.Add([]byte{wireMsgClientID, 1, 0x00})              // control byte
	f.Add([]byte{wireMsgClientID, 3, 'a', 0xFF, 'b'})    // high bit set
	f.Add([]byte{wireMsgRequest, 2, 'o', 'k'})           // wrong message type
	f.Add(appendClientID(nil, string(make([]byte, 65)))) // over the length cap
	f.Fuzz(func(t *testing.T, body []byte) {
		id, err := parseClientID(body)
		if err != nil {
			return
		}
		if !ValidClientID(id) {
			t.Fatalf("parser accepted invalid client ID %q", id)
		}
		re := appendClientID(nil, id)
		id2, err := parseClientID(re)
		if err != nil || id2 != id {
			t.Fatalf("client ID does not round-trip: %q -> %q (%v)", id, id2, err)
		}
	})
}
