package attack

import (
	"testing"

	"ensembler/internal/metrics"
	"ensembler/internal/tensor"
)

// TestDecoderTransferFloor pins a reproduction finding that this test is
// the record of: a decoder trained to invert one head transfers to an
// *independently trained* head at a clearly degraded SSIM. The existence of this floor is why SSIM compresses mid-table
// defenses at this scale; the degradation (same-head ≫ cross-head) is what
// the Ensembler defense exploits.
func TestDecoderTransferFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	sp := tinySplits(71)
	vA := trainVictim(sp, 72)
	vB := trainVictim(sp, 73) // independent head, same task/data

	cfg := Config{Arch: tinyArch(), DecoderEpochs: 8, BatchSize: 16, Seed: 74}
	featA := func(x *tensor.Tensor) *tensor.Tensor { return vA.ClientFeatures(x, false) }
	dec := TrainDecoder(cfg, featA, sp.Aux)

	idxs := make([]int, 16)
	for i := range idxs {
		idxs[i] = i
	}
	x, _ := sp.Test.Batch(idxs)
	same := metrics.BatchSSIM(dec.Reconstruct(vA.ClientFeatures(x, false)), x)
	cross := metrics.BatchSSIM(dec.Reconstruct(vB.ClientFeatures(x, false)), x)

	if same <= cross {
		t.Errorf("matched-head inversion (%.3f) must beat cross-head transfer (%.3f)", same, cross)
	}
	if same < SSIMFloor {
		t.Errorf("matched-head SSIM %.3f suspiciously low — decoder broken?", same)
	}
}
