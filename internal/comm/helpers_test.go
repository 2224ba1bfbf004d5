package comm

import (
	"fmt"
	"math"

	"ensembler/internal/tensor"
)

// encodeResponse encodes a float64 Response — a literal, or one a fake
// server in a test built — the way any holder of one does: its own Features
// and Outputs are the tensors.
func encodeResponse(buf []byte, resp *Response, f32, withCode bool, traceID uint64) ([]byte, error) {
	return appendResponse(buf, resp, resp.Features, resp.Outputs, f32, withCode, traceID)
}

// parseResponse decodes a response frame body onto the heap: the zero arena
// is never Reset, so the result is the test's to keep.
func parseResponse(body []byte, resp *Response, hasCode bool, echo *uint64) error {
	var heap tensor.Arena[float64]
	return parseResponseInto(body, resp, hasCode, echo, &heap)
}

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

// jobFor returns a float64 job carrying req the way the gob codec and the
// sync entry deliver one: header and tensors in j.req, tensors ingested into
// the payload.
func jobFor(req Request) *job {
	j := newJob[float64]()
	j.req = req
	j.pay.ingest(&j.req)
	return j
}

// jobRequest views a float64 job's binary-decoded request as a Request:
// routing header from j.req, tensors from the payload.
func jobRequest(j *job) *Request {
	p := payloadOf[float64](j)
	return &Request{Model: j.req.Model, Version: j.req.Version, Features: p.feat, Inputs: p.inputs}
}
