package comm

import (
	"math"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// directF32 computes what the f32 backend must produce for x32: every codec
// body compiled to float32 and run on the exact same float32 input bits. The
// serving path — decode, arena staging, body compilation, response copy-out —
// must reproduce these values bit for bit.
func directF32(t testing.TB, n int, x32 *tensor.Tensor32) []*tensor.Tensor32 {
	t.Helper()
	outs := make([]*tensor.Tensor32, n)
	for i, b := range codecBodies(n) {
		n32, err := nn.CompileF32(b)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = n32.ForwardInfer(x32, new(nn.Scratch[float32]))
	}
	return outs
}

func newF32Server(n int) *Server {
	return NewServer(codecBodies(n), WithWorkers(2), WithPrecision(PrecisionF32))
}

// TestF32WireF32ComputeBitExact is the double-rounding regression test: a
// request on the f32 wire served by a PrecisionF32 server must answer with
// exactly the bits of the direct float32 computation — no intermediate f64
// round trip anywhere in decode → forward → encode. (The old failure mode:
// the f32 payload widened to f64, computed on the f64 kernels, and narrowed
// again on encode, rounding twice.)
func TestF32WireF32ComputeBitExact(t *testing.T) {
	const nBodies = 3
	srv := newF32Server(nBodies)
	x := wireTensor(31, 2, 4, 8, 8)
	want := directF32(t, nBodies, tensor.Narrow32(x))

	body, err := appendRequest(nil, &Request{Features: x}, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob[float32]()
	serve := jobServer(srv, srv.newBodyCache())
	if err := j.pay.parse(body, &j.req, nil); err != nil {
		t.Fatal(err)
	}
	resp := serve(j)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	enc, err := j.pay.appendResponse(nil, resp, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := parseResponse(enc, &got, nil); err != nil {
		t.Fatal(err)
	}
	if len(got.Features) != nBodies {
		t.Fatalf("response carries %d feature maps, want %d", len(got.Features), nBodies)
	}
	for b, w := range want {
		g := got.Features[b]
		if len(g.Data) != len(w.Data) {
			t.Fatalf("body %d: response shape %v, direct %v", b, g.Shape, w.Shape)
		}
		for k, v := range w.Data {
			// The client decodes the f32 wire by exact widening, so bitwise
			// f32 equality is float64 equality here.
			if math.Float64bits(g.Data[k]) != math.Float64bits(float64(v)) {
				t.Fatalf("body %d feature %d: served %v, direct f32 %v — a float64 conversion leaked into the f32 path",
					b, k, g.Data[k], v)
			}
		}
	}
}

// TestF32ServerF64IngressExact pins the one-rounding-step contract for the
// f64 wire of a PrecisionF32 server: the input narrows exactly once (to the
// same bits the f32 wire would carry) and every result widens exactly, so an
// f64-wire client sees precisely the direct float32 computation — rounded
// nowhere further.
func TestF32ServerF64IngressExact(t *testing.T) {
	const nBodies = 3
	srv := newF32Server(nBodies)
	x := wireTensor(33, 2, 4, 8, 8)
	want := directF32(t, nBodies, tensor.Narrow32(x))

	// The codec narrows at decode time.
	body, err := appendRequest(nil, &Request{Features: x}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob[float32]()
	serve := jobServer(srv, srv.newBodyCache())
	if err := j.pay.parse(body, &j.req, nil); err != nil {
		t.Fatal(err)
	}
	resp := serve(j)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	enc, err := j.pay.appendResponse(nil, resp, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := parseResponse(enc, &got, nil); err != nil {
		t.Fatal(err)
	}
	checkWidenedExact(t, "binary-f64", &got, want)
}

func checkWidenedExact(t *testing.T, path string, got *Response, want []*tensor.Tensor32) {
	t.Helper()
	if len(got.Features) != len(want) {
		t.Fatalf("%s: response carries %d feature maps, want %d", path, len(got.Features), len(want))
	}
	for b, w := range want {
		g := got.Features[b]
		if len(g.Data) != len(w.Data) {
			t.Fatalf("%s body %d: response shape %v, direct %v", path, b, g.Shape, w.Shape)
		}
		for k, v := range w.Data {
			if math.Float64bits(g.Data[k]) != math.Float64bits(float64(v)) {
				t.Fatalf("%s body %d feature %d: served %v, direct f32 widens to %v",
					path, b, k, g.Data[k], float64(v))
			}
		}
	}
}

// TestF32BatchedWireBitExact extends the bit-exactness pin to a batch in
// the request's leading axis: every row of a 3-row request served on the f32
// wire is bit-equal to the direct float32 pass over that row alone.
func TestF32BatchedWireBitExact(t *testing.T) {
	const nBodies = 2
	srv := newF32Server(nBodies)
	x := wireTensor(35, 3, 4, 8, 8)
	body, err := appendRequest(nil, &Request{Features: x}, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob[float32]()
	if err := j.pay.parse(body, &j.req, nil); err != nil {
		t.Fatal(err)
	}
	resp := jobServer(srv, srv.newBodyCache())(j)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	enc, err := j.pay.appendResponse(nil, resp, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := parseResponse(enc, &got, nil); err != nil {
		t.Fatal(err)
	}
	if len(got.Features) != nBodies {
		t.Fatalf("response carries %d feature maps, want %d", len(got.Features), nBodies)
	}
	per := x.Size() / x.Shape[0]
	for r := 0; r < x.Shape[0]; r++ {
		row := tensor.New(1, 4, 8, 8)
		copy(row.Data, x.Data[r*per:])
		for b, w := range directF32(t, nBodies, tensor.Narrow32(row)) {
			g := got.Features[b]
			if len(g.Data) != x.Shape[0]*w.Size() {
				t.Fatalf("body %d: response shape %v for %d rows of %v", b, g.Shape, x.Shape[0], w.Shape)
			}
			part := g.Data[r*w.Size():]
			for k, v := range w.Data {
				if math.Float64bits(part[k]) != math.Float64bits(float64(v)) {
					t.Fatalf("row %d body %d feature %d: served %v, direct f32 %v", r, b, k, part[k], v)
				}
			}
		}
	}
}

// TestServerComputeLoopZeroAllocsF32 pins the zero-allocation criterion at
// the float32 instantiation: the full server loop — binary decode into the
// f32 arena, resolve, body-set lookup (compiled float32 bodies), every body
// pass, response copy-out, f32 encode — performs zero heap allocations at
// steady state, exactly like the float64 instantiation.
func TestServerComputeLoopZeroAllocsF32(t *testing.T) {
	loop := newServeLoop(t, newF32Server(3), &Request{Features: wireTensor(19, 2, 4, 8, 8)}, true)
	if allocs := loop.allocs(); allocs != 0 {
		t.Errorf("steady-state f32 server compute loop allocates %v times per request, want 0", allocs)
	}
}

// BenchmarkServeRequestLoopF32 is BenchmarkServeRequestLoop on the float32
// backend — same request shape, same loop, f32 decode/compute/encode. CI runs
// both and gates the f32 loop at ≥3× the f64 requests/sec.
func BenchmarkServeRequestLoopF32(b *testing.B) {
	newServeLoop(b, newF32Server(4), &Request{Features: wireTensor(22, 4, 4, 8, 8)}, true).bench(b)
}
