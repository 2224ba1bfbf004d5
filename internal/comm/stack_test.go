package comm

import (
	"testing"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// TestStackSplitRoundTrip pins the batch stacking on the serving job's
// payload: the inputs concatenate along the batch axis into the job arena,
// row counts land in the payload's rows, and mismatched trailing shapes are
// rejected.
func TestStackSplitRoundTrip(t *testing.T) {
	mk := func(seed int64, rows int) *tensor.Tensor {
		x := tensor.New(rows, 4, 8, 8)
		rng.New(seed).FillNormal(x.Data, 0, 1)
		return x
	}
	a, b := mk(56, 2), mk(57, 3)
	j := jobFor(Request{Inputs: []*tensor.Tensor{a, b}})
	p := payloadOf[float64](j)
	stacked, err := p.stackInputs()
	if err != nil {
		t.Fatal(err)
	}
	if stacked.Shape[0] != 5 {
		t.Fatalf("stacked rows = %d, want 5", stacked.Shape[0])
	}
	if len(p.rows) != 2 || p.rows[0] != 2 || p.rows[1] != 3 {
		t.Fatalf("row counts %v, want [2 3]", p.rows)
	}
	per := 4 * 8 * 8
	for i, in := range []*tensor.Tensor{a, b} {
		off := 0
		if i == 1 {
			off = 2 * per
		}
		for k, v := range in.Data {
			if stacked.Data[off+k] != v {
				t.Fatalf("stacked data diverges for input %d at %d", i, k)
			}
		}
	}

	// Mismatched trailing shape within one batch is a protocol error.
	c := mk(58, 1)
	c.Shape[2] = 4
	c.Data = c.Data[:1*4*4*8]
	j.reset()
	setRequest(j, Request{Inputs: []*tensor.Tensor{a, c}})
	if _, err := p.stackInputs(); err == nil {
		t.Error("shape-mismatched batch must be rejected")
	}
}

// TestValidateFeaturesRejectsHostileTensors covers the wire-trust boundary:
// tensors straight off the network can lie about their shape.
func TestValidateFeaturesRejectsHostileTensors(t *testing.T) {
	cases := []struct {
		name string
		f    *tensor.Tensor
	}{
		{"nil", nil},
		{"wrong rank", &tensor.Tensor{Shape: []int{2, 2}, Data: make([]float64, 4)}},
		{"zero dim", &tensor.Tensor{Shape: []int{0, 3, 8, 8}}},
		{"negative dim", &tensor.Tensor{Shape: []int{1, -3, 8, 8}, Data: nil}},
		{"shape/data mismatch", &tensor.Tensor{Shape: []int{1, 4, 8, 8}, Data: make([]float64, 5)}},
	}
	for _, tc := range cases {
		if err := validateFeatures(tc.f); err == nil {
			t.Errorf("%s: must be rejected", tc.name)
		}
	}
}
