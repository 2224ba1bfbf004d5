package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"ensembler/internal/tensor"
)

// netState is the on-disk representation of a network's learnable and
// running state: parameter tensors by name plus batch-norm running
// statistics in layer order.
type netState struct {
	Name    string
	Params  map[string]*tensor.Tensor
	RunMean []*tensor.Tensor
	RunVar  []*tensor.Tensor
}

// collectBatchNorms walks the layer tree gathering BatchNorm2D layers in
// deterministic order, including those nested in residual blocks and
// sub-networks.
func collectBatchNorms(layers []Layer) []*BatchNorm2D {
	var bns []*BatchNorm2D
	for _, l := range layers {
		switch v := l.(type) {
		case *BatchNorm2D:
			bns = append(bns, v)
		case *BasicBlock:
			bns = append(bns, v.BN1, v.BN2)
			if v.ShortBN != nil {
				bns = append(bns, v.ShortBN)
			}
		case *Network:
			bns = append(bns, collectBatchNorms(v.Layers)...)
		}
	}
	return bns
}

// Save writes the network's parameters and running statistics to w.
func (n *Network) Save(w io.Writer) error {
	st := netState{Name: n.Name, Params: map[string]*tensor.Tensor{}}
	for _, p := range n.Params() {
		if _, dup := st.Params[p.Name]; dup {
			return fmt.Errorf("nn: duplicate parameter name %q in %s", p.Name, n.Name)
		}
		st.Params[p.Name] = p.Value
	}
	for _, bn := range collectBatchNorms(n.Layers) {
		st.RunMean = append(st.RunMean, bn.RunMean)
		st.RunVar = append(st.RunVar, bn.RunVar)
	}
	return gob.NewEncoder(w).Encode(&st)
}

// Load restores parameters and running statistics previously written by Save
// into an identically structured network. The bytes are a decode boundary:
// gob happily materializes nil tensor pointers and shape/data disagreements
// a forged or corrupted file carries, so every restored tensor is checked
// before any copy — a bare copy would silently truncate into half-restored
// weights.
func (n *Network) Load(r io.Reader) error {
	var st netState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("nn: decoding network state: %w", err)
	}
	for _, p := range n.Params() {
		v, ok := st.Params[p.Name]
		if !ok {
			return fmt.Errorf("nn: saved state missing parameter %q", p.Name)
		}
		if v == nil || !v.SameShape(p.Value) || len(v.Data) != len(p.Value.Data) {
			return fmt.Errorf("nn: parameter %q does not match saved tensor", p.Name)
		}
		copy(p.Value.Data, v.Data)
	}
	bns := collectBatchNorms(n.Layers)
	if len(bns) != len(st.RunMean) || len(bns) != len(st.RunVar) {
		return fmt.Errorf("nn: %d batch norms vs %d/%d saved running stats", len(bns), len(st.RunMean), len(st.RunVar))
	}
	for i, bn := range bns {
		mean, vr := st.RunMean[i], st.RunVar[i]
		if mean == nil || vr == nil ||
			len(mean.Data) != len(bn.RunMean.Data) || len(vr.Data) != len(bn.RunVar.Data) {
			return fmt.Errorf("nn: batch norm %d running stats do not match saved tensors", i)
		}
		copy(bn.RunMean.Data, mean.Data)
		copy(bn.RunVar.Data, vr.Data)
	}
	return nil
}

// CopyStateFrom copies parameter values and running statistics from src into
// n; both networks must share the same structure (it matches by position,
// not by name, so renamed clones work).
func (n *Network) CopyStateFrom(src *Network) error {
	dst, sp := n.Params(), src.Params()
	if len(dst) != len(sp) {
		return fmt.Errorf("nn: CopyStateFrom param count %d vs %d", len(dst), len(sp))
	}
	for i := range dst {
		if !dst[i].Value.SameShape(sp[i].Value) {
			return fmt.Errorf("nn: CopyStateFrom shape %v vs %v at %d", dst[i].Value.Shape, sp[i].Value.Shape, i)
		}
		copy(dst[i].Value.Data, sp[i].Value.Data)
	}
	db, sb := collectBatchNorms(n.Layers), collectBatchNorms(src.Layers)
	if len(db) != len(sb) {
		return fmt.Errorf("nn: CopyStateFrom batchnorm count %d vs %d", len(db), len(sb))
	}
	for i := range db {
		copy(db[i].RunMean.Data, sb[i].RunMean.Data)
		copy(db[i].RunVar.Data, sb[i].RunVar.Data)
	}
	return nil
}
