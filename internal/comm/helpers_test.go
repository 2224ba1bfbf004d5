package comm

import (
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// encodeResponse encodes a float64 Response — a literal, or one a fake
// server in a test built — the way any holder of one does: its own Features
// and Outputs are the tensors.
func encodeResponse(buf []byte, resp *Response, f32 bool, traceID uint64) ([]byte, error) {
	return appendResponse(buf, resp, resp.Features, resp.Outputs, f32, traceID)
}

// parseResponse decodes a response frame body onto the heap: the zero arena
// is never Reset, so the result is the test's to keep.
func parseResponse(body []byte, resp *Response, echo *uint64) error {
	var heap tensor.Arena[float64]
	return parseResponseInto(body, resp, echo, &heap)
}

// GobStreamOpener is how a client of the retired gob protocol opened its
// stream: the type definition of Request, captured from the last tree that
// spoke it (exported to the package's external tests).
const GobStreamOpener = "D\x7f\x03\x01\x01\aRequest\x01\xff\x80\x00\x01\x04\x01\x05Model\x01\f\x00"

// bitsDiffer reports the first way got is not want, shape and bit pattern
// (NaN payloads and signed zeros included).
func bitsDiffer(got, want *tensor.Tensor) error {
	if got == nil || !got.SameShape(want) {
		return fmt.Errorf("got %v, want shape %v", got, want.Shape)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, v, want.Data[i])
		}
	}
	return nil
}

// setRequest loads req into a float64 job the way the codec delivers one:
// routing header in j.req, tensors in the payload. Unlike the codec it takes
// any tensor, including ones no frame could carry — the lies the compute
// path's own validation exists to catch.
func setRequest(j *job, req Request) {
	j.req = Request{Model: req.Model, Version: req.Version}
	p := payloadOf[float64](j)
	if req.Inputs != nil {
		p.batched = true
		p.inputs = append(p.inputs[:0], req.Inputs...)
		return
	}
	p.feat = req.Features
}

// jobFor returns a fresh float64 job carrying req (see setRequest).
func jobFor(req Request) *job {
	j := newJob[float64]()
	setRequest(j, req)
	return j
}

// serveOne runs req through a float64 server's serve path on the calling
// goroutine, over a replica cache of its own, and returns the response with
// the served tensors attached.
func serveOne(s *Server, req Request) *Response {
	j := jobFor(req)
	resp := *s.serve(j, newReplicaCache(PrecisionF64))
	if p := payloadOf[float64](j); p.served {
		if p.batched {
			resp.Outputs = p.outputs
		} else {
			resp.Features = p.feats
		}
	}
	return &resp
}

// jobRequest views a float64 job's binary-decoded request as a Request:
// routing header from j.req, tensors from the payload.
func jobRequest(j *job) *Request {
	p := payloadOf[float64](j)
	return &Request{Model: j.req.Model, Version: j.req.Version, Features: p.feat, Inputs: p.inputs}
}
